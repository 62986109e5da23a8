import argparse
import importlib
import json
import math
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import panoloc
from conftest import fsum_map_json
from panoloc import fileio
from panoloc.cli import build_parser, main
from panoloc.fileio import load_poses_jsonl
from panoloc.geometry import relative_pose_errors


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """A small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("mini")
    gen = root / "gen"
    frames = root / "frames"
    assert run("generate", "--buildings", 8, "--grid", "4x3", "--poses", 5,
               "--seed", 3, "--out", gen) == 0
    assert run("render", "--scene", gen / "scene.json", "--poses", gen / "poses.jsonl",
               "--dims", "128x64", "--out", frames) == 0
    assert run("fit-map", "--frames", frames, "--out", root / "map.json") == 0
    pred = root / "pred"
    assert run("predict-sim", "--frames", frames, "--map", root / "map.json",
               "--seed", 3, "--out", pred) == 0
    loc = root / "loc"
    assert run("localize", "--frames", pred, "--map", root / "map.json",
               "--iterations", 200, "--seed", 3, "--out", loc) == 0
    ev = root / "eval"
    assert run("evaluate", "--estimates", loc / "estimates.jsonl",
               "--gt-poses", gen / "poses.jsonl", "--pred-frames", pred,
               "--gt-frames", frames, "--percentiles", "80", "--out", ev) == 0
    return root


# argv of each stage that takes --threads, reading inputs from ``root`` and
# writing to ``out``: fit-map subsamples, and predict-sim adds outliers and
# label flips, so every seeded path runs
THREADED_STAGES = {
    "render": lambda root, out: [
        "render", "--scene", root / "gen" / "scene.json", "--poses", root / "gen" / "poses.jsonl",
        "--dims", "128x64", "--out", out],
    "fit-map": lambda root, out: [
        "fit-map", "--frames", root / "render", "--max-points-per-frame", 300, "--seed", 2,
        "--out", out / "map.json"],
    "predict-sim": lambda root, out: [
        "predict-sim", "--frames", root / "render", "--map", root / "fit-map" / "map.json",
        "--sigma", 0.1, "--outlier-rate", 0.3, "--label-flip-rate", 0.1, "--seed", 2,
        "--out", out],
    "localize": lambda root, out: [
        "localize", "--frames", root / "predict-sim", "--map", root / "fit-map" / "map.json",
        "--iterations", 200, "--seed", 2, "--out", out],
    "evaluate": lambda root, out: [
        "evaluate", "--estimates", root / "localize" / "estimates.jsonl",
        "--gt-poses", root / "gen" / "poses.jsonl", "--pred-frames", root / "predict-sim",
        "--gt-frames", root / "render", "--percentiles", 80, "--out", out],
}


@pytest.fixture(scope="module")
def threads_pipeline(tmp_path_factory):
    """A noisy serial run, one directory per stage named after it."""
    root = tmp_path_factory.mktemp("threads")
    assert run("generate", "--buildings", 8, "--grid", "4x3", "--poses", 5,
               "--seed", 2, "--out", root / "gen") == 0
    for stage, argv in THREADED_STAGES.items():
        assert run(*argv(root, root / stage)) == 0
    return root


class TestPipeline:
    def test_generate_outputs(self, mini_pipeline):
        scene = fileio.load_scene(mini_pipeline / "gen" / "scene.json")
        assert len(scene.buildings) == 8
        assert scene.road_segments == 12
        poses = load_poses_jsonl(mini_pipeline / "gen" / "poses.jsonl")
        assert len(poses) == 5

    def test_render_emits_two_files_per_pose(self, mini_pipeline):
        frames = mini_pipeline / "frames"
        assert len(list(frames.glob("*.scrd"))) == 5
        assert len(list(frames.glob("*.lbls"))) == 5

    def test_zero_noise_prediction_is_byte_identical(self, mini_pipeline):
        frames, pred = mini_pipeline / "frames", mini_pipeline / "pred"
        for path in frames.glob("*.scrd"):
            assert (pred / path.name).read_bytes() == path.read_bytes()
        for path in frames.glob("*.lbls"):
            assert (pred / path.name).read_bytes() == path.read_bytes()

    def test_zero_noise_localisation_recovers_trajectory(self, mini_pipeline):
        estimates = fileio.load_estimates_jsonl(mini_pipeline / "loc" / "estimates.jsonl")
        gt = dict(load_poses_jsonl(mini_pipeline / "gen" / "poses.jsonl"))
        dists = []
        for frame, pose, inliers, _, _ in estimates:
            assert pose is not None
            dist, angle = relative_pose_errors(pose, gt[frame])
            dists.append(dist)
            assert angle < 0.01
        assert np.median(dists) < 0.01

    def test_report_contents(self, mini_pipeline):
        report = json.loads((mini_pipeline / "eval" / "report.json").read_text())
        assert report["frames"]["evaluated"] == 5
        assert report["pose"]["median_dist_m"] < 0.01
        assert "80" in report["pose"]["extra_percentiles"]
        assert "coord" in report and "coord_buildings" in report
        assert report["coord"]["pct_within_0_5m"] == 100.0
        assert (mini_pipeline / "eval" / "dist_curve.csv").exists()
        assert (mini_pipeline / "eval" / "angle_curve.csv").exists()
        assert (mini_pipeline / "eval" / "roc.csv").exists()

    def test_building_numbers_match_a_per_pixel_oracle(self, mini_pipeline, tmp_path):
        # noisy predictions of the mini run's frames, scored by scalar
        # distances over the pixels whose ground truth is a finite building
        frames, pred, ev = mini_pipeline / "frames", tmp_path / "pred", tmp_path / "eval"
        assert run("predict-sim", "--frames", frames, "--map", mini_pipeline / "map.json",
                   "--sigma", 0.8, "--outlier-rate", 0.1, "--label-flip-rate", 0.1,
                   "--seed", 4, "--out", pred) == 0
        assert run("evaluate", "--estimates", mini_pipeline / "loc" / "estimates.jsonl",
                   "--gt-poses", mini_pipeline / "gen" / "poses.jsonl", "--pred-frames", pred,
                   "--gt-frames", frames, "--out", ev) == 0
        dists = []
        for frame in fileio.list_frames(frames):
            gt, labels = fileio.load_frame(frames, frame)
            pred_coords = fileio.load_frame_coords(pred, frame).coords
            for r, c in np.ndindex(labels.labels.shape):
                if labels.labels[r, c] >= 1000 and all(map(math.isfinite, gt.coords[r, c])):
                    dx, dy, dz = (float(p) - float(g)
                                  for p, g in zip(pred_coords[r, c], gt.coords[r, c]))
                    d = math.sqrt(dx * dx + dy * dy + dz * dz)
                    dists.append(d if math.isfinite(d) else math.inf)
        n = len(dists)

        def pct(t):
            return 100.0 * sum(d <= t for d in dists) / n

        report = json.loads((ev / "report.json").read_text())
        block = report["coord_buildings"]
        assert block["n_valid"] == n < report["coord"]["n_valid"]
        assert 0.0 < block["pct_within_0_5m"] == pct(0.5) < block["pct_within_1m"] == pct(1.0)
        assert block["pct_within_3m"] == pct(3.0) < 100.0
        within3 = [d for d in dists if d <= 3.0]
        assert block["mean_dist_within_3m"] == pytest.approx(math.fsum(within3) / len(within3),
                                                             rel=1e-12)
        header, *rows = (ev / "roc.csv").read_text().splitlines()
        column = header.split(",").index("coord_buildings")
        assert len(rows) == 50
        for row in rows:
            cells = row.split(",")
            assert float(cells[column]) == pct(float(cells[0]))

    def test_localize_metadata_echoes_defaults(self, mini_pipeline):
        meta = json.loads((mini_pipeline / "loc" / "localize_meta.json").read_text())
        assert set(meta) == {"command", "flags"}  # the seed is one of the flags
        assert meta["flags"]["iterations"] == 200
        assert meta["flags"]["threshold_deg"] == 0.22

    def test_evaluate_reads_no_predicted_label_file(self, mini_pipeline, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        for path in (mini_pipeline / "pred").glob("*.scrd"):
            (pred / path.name).write_bytes(path.read_bytes())
        assert run("evaluate", "--estimates", mini_pipeline / "loc" / "estimates.jsonl",
                   "--gt-poses", mini_pipeline / "gen" / "poses.jsonl", "--pred-frames", pred,
                   "--gt-frames", mini_pipeline / "frames", "--percentiles", "80",
                   "--out", tmp_path / "eval") == 0
        for name in ("report.json", "roc.csv"):
            assert (tmp_path / "eval" / name).read_bytes() == \
                (mini_pipeline / "eval" / name).read_bytes()


class TestDeterminism:
    def test_generate_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--buildings", 6, "--grid", "3x3", "--poses", 4,
                       "--seed", 9, "--out", out) == 0
        assert (a / "scene.json").read_bytes() == (b / "scene.json").read_bytes()
        assert (a / "poses.jsonl").read_bytes() == (b / "poses.jsonl").read_bytes()

    def test_render_reruns_byte_identical(self, tmp_path):
        gen = tmp_path / "gen"
        run("generate", "--buildings", 6, "--grid", "3x3", "--poses", 2,
            "--seed", 4, "--out", gen)
        a, b = tmp_path / "fa", tmp_path / "fb"
        for out in (a, b):
            assert run("render", "--scene", gen / "scene.json",
                       "--poses", gen / "poses.jsonl", "--dims", "64x32",
                       "--out", out) == 0
        for path in sorted(a.glob("*.scrd")) + sorted(a.glob("*.lbls")):
            assert path.read_bytes() == (b / path.name).read_bytes()

    @pytest.mark.parametrize("stage", list(THREADED_STAGES))
    def test_threads_write_the_serial_bytes(self, threads_pipeline, tmp_path, stage):
        # each stage reads the serial run's inputs and splits its frames over 2 threads
        serial, threaded = threads_pipeline / stage, tmp_path / stage
        assert run(*THREADED_STAGES[stage](threads_pipeline, threaded), "--threads", 2) == 0
        def data_files(directory):
            return sorted(p.name for p in directory.iterdir() if not p.name.endswith("_meta.json"))

        data = data_files(serial)
        assert data and data_files(threaded) == data
        for name in data:
            assert (threaded / name).read_bytes() == (serial / name).read_bytes(), name

    def test_rerun_into_the_same_directories(self, tmp_path):
        # every stage rewrites its outputs in place: same bytes, no leftovers
        def pipeline():
            gen, frames, pred = tmp_path / "gen", tmp_path / "frames", tmp_path / "pred"
            assert run("generate", "--buildings", 6, "--grid", "3x3", "--poses", 2,
                       "--seed", 6, "--out", gen) == 0
            assert run("render", "--scene", gen / "scene.json", "--poses", gen / "poses.jsonl",
                       "--dims", "64x32", "--out", frames) == 0
            assert run("fit-map", "--frames", frames, "--out", tmp_path / "map" / "map.json") == 0
            assert run("predict-sim", "--frames", frames, "--map", tmp_path / "map" / "map.json",
                       "--sigma", 0.1, "--seed", 6, "--out", pred) == 0
            assert run("localize", "--frames", pred, "--map", tmp_path / "map" / "map.json",
                       "--iterations", 50, "--seed", 6, "--out", tmp_path / "loc") == 0
            assert run("evaluate", "--estimates", tmp_path / "loc" / "estimates.jsonl",
                       "--gt-poses", gen / "poses.jsonl", "--pred-frames", pred,
                       "--gt-frames", frames, "--out", tmp_path / "eval") == 0
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        first = pipeline()
        second = pipeline()
        assert second == first
        assert not any(p.name.endswith(".tmp") for p in first)


class TestErrorHandling:
    def test_truncated_frame_is_exit_2(self, mini_pipeline, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        for pattern in ("*.scrd", "*.lbls"):
            for path in (mini_pipeline / "pred").glob(pattern):
                (frames / path.name).write_bytes(path.read_bytes())
        victim = sorted(frames.glob("*.scrd"))[1]
        victim.write_bytes(victim.read_bytes()[:-100])
        assert run("localize", "--frames", frames, "--map", mini_pipeline / "map.json",
                   "--iterations", 20, "--out", tmp_path / "loc") == 2
        assert f"{victim}: truncated payload" in capsys.readouterr().err


    @pytest.mark.parametrize("how", ["missing-key", "singular-W", "nan-mean"])
    def test_malformed_map_is_exit_2(self, mini_pipeline, tmp_path, capsys, how):
        doc = json.loads((mini_pipeline / "map.json").read_text())
        rec = doc["labels"][0]
        if how == "missing-key":
            del rec["W"]
        elif how == "singular-W":
            rec["W"] = [0.0] * 9
        else:
            rec["mean"][0] = float("nan")
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        assert run("localize", "--frames", mini_pipeline / "pred", "--map", bad,
                   "--iterations", 20, "--out", tmp_path / "loc") == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["missing-yaw", "nan-center", "negative-half",
                                     "duplicate-label"])
    def test_malformed_scene_is_exit_2(self, tmp_path, capsys, how):
        gen = tmp_path / "gen"
        run("generate", "--buildings", 2, "--grid", "2x2", "--poses", 1,
            "--seed", 0, "--out", gen)
        doc = json.loads((gen / "scene.json").read_text())
        rec = doc["buildings"][0]
        if how == "missing-yaw":
            del rec["yaw"]
        elif how == "nan-center":
            rec["center"][0] = float("nan")
        elif how == "negative-half":
            rec["half_extents"][1] = -2.0
        else:
            rec["label"] = doc["buildings"][1]["label"]
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("render", "--scene", bad, "--poses", gen / "poses.jsonl",
                   "--dims", "64x32", "--out", tmp_path / "f") == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["nan-t", "inf-t", "missing-q", "malformed-line",
                                     "repeated-frame"])
    @pytest.mark.parametrize("which", ["poses", "estimates"])
    def test_malformed_pose_records_are_exit_2(self, mini_pipeline, tmp_path, capsys,
                                               which, how):
        files = {"poses": mini_pipeline / "gen" / "poses.jsonl",
                 "estimates": mini_pipeline / "loc" / "estimates.jsonl"}
        lines = files[which].read_text().splitlines()
        rec = json.loads(lines[1])
        if how == "nan-t":
            rec["t"][0] = float("nan")
        elif how == "inf-t":
            rec["t"][2] = float("-inf")
        elif how == "missing-q":
            del rec["q"]
        elif how == "repeated-frame":
            rec["frame"] = json.loads(lines[0])["frame"]
        lines[1] = json.dumps(rec)[:-1] if how == "malformed-line" else json.dumps(rec)
        files[which] = bad = tmp_path / f"{which}.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("evaluate", "--estimates", files["estimates"], "--gt-poses", files["poses"],
                   "--out", tmp_path / "eval") == 2
        assert f"{bad}, line 2" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()
        if which == "poses":
            assert run("render", "--scene", mini_pipeline / "gen" / "scene.json",
                       "--poses", bad, "--dims", "64x32", "--out", tmp_path / "f") == 2
            assert f"{bad}, line 2" in capsys.readouterr().err

    def test_missing_scene_is_exit_2(self, tmp_path):
        assert run("render", "--scene", tmp_path / "nope.json",
                   "--poses", tmp_path / "nope.jsonl", "--out", tmp_path) == 2

    @pytest.mark.parametrize("command", ["render", "evaluate"])
    def test_seed_is_no_flag_of_unseeded_stages(self, tmp_path, command, capsys):
        # neither stage draws a random number, so a seed would change nothing
        inputs = {"render": ["--scene", "s.json", "--poses", "p.jsonl"],
                  "evaluate": ["--estimates", "e.jsonl", "--gt-poses", "p.jsonl"]}[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *inputs, "--seed", 1, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["150", "-10", "nan"])
    def test_percentiles_outside_0_100_are_exit_2(self, mini_pipeline, tmp_path, capsys,
                                                  value):
        assert run("evaluate", "--estimates", mini_pipeline / "loc" / "estimates.jsonl",
                   "--gt-poses", mini_pipeline / "gen" / "poses.jsonl",
                   f"--percentiles={value}", "--out", tmp_path / "eval") == 2
        assert f"percentile {float(value)} is outside [0, 100]" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_percentiles_are_checked_when_every_frame_failed(self, mini_pipeline, tmp_path,
                                                            capsys):
        # with no pose to take a percentile of, the value must still be checked
        estimates = tmp_path / "estimates.jsonl"
        fileio.save_estimates_jsonl(estimates, [("000000", None, 0, math.nan, "no consensus")])
        assert run("evaluate", "--estimates", estimates,
                   "--gt-poses", mini_pipeline / "gen" / "poses.jsonl",
                   "--percentiles", "150", "--out", tmp_path / "eval") == 2
        assert "percentile 150.0 is outside [0, 100]" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--buildings", "-1"], "--buildings must be at least 0, got -1"),
        (["--buildings", "2", "--grid", "3"], "bad --grid '3', expected two integers AxB"),
        (["--buildings", "2", "--grid", "axb"], "bad --grid 'axb', expected two integers AxB"),
        (["--buildings", "2", "--grid", "0x0"],
         "bad --grid '0x0', expected two positive integers AxB"),
        (["--buildings", "2", "--grid=-2x-3"],
         "bad --grid '-2x-3', expected two positive integers AxB"),
        (["--buildings", "0", "--grid", "0x3"],
         "bad --grid '0x3', expected two positive integers AxB"),
        (["--buildings", "5", "--grid", "2x2"], "cannot place 5 buildings on a 2x2 grid"),
    ], ids=["negative-buildings", "grid-one-number", "grid-not-int", "grid-empty",
            "grid-negative", "grid-zero-blocks", "grid-too-small"])
    def test_bad_generate_input_names_the_flag(self, tmp_path, capsys, flags, message):
        assert run("generate", *flags, "--poses", 1, "--out", tmp_path / "gen") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--buildings", "2", "--grid", "2x2", "--camera-height", "3"],
        ["localize", "--frames", "f", "--map", "m.json", "--min-sample", "5"],
    ], ids=["camera-height", "min-sample"])
    def test_fixed_values_are_no_flags(self, tmp_path, capsys, argv):
        # the camera height and the sample size are constants, not options
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        config = tmp_path / "config.json"
        key = argv[-2][2:]
        config.write_text(json.dumps({argv[0]: {key: float(argv[-1])}}))
        assert run(*argv[:-2], "--config", config, "--out", tmp_path / "out") == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        config.write_text(json.dumps({key: float(argv[-1])}))
        assert run(*argv[:-2], "--config", config, "--out", tmp_path / "out") == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, flag, value, least", [
        ("generate", "--poses", -1, 0), ("fit-map", "--max-points-per-frame", -2, 0),
        ("localize", "--max-corrs", -5, 0), ("render", "--threads", 0, 1),
        ("generate", "--threads", 0, 1),
    ])
    def test_negative_counts_are_exit_2(self, mini_pipeline, tmp_path, capsys, stage, flag,
                                        value, least):
        # unchecked, a negative cap would drop that many random items
        out = tmp_path / "out"
        inputs = {
            "generate": ["--buildings", 2, "--grid", "2x2"],
            "render": ["--scene", mini_pipeline / "gen" / "scene.json",
                       "--poses", mini_pipeline / "gen" / "poses.jsonl", "--dims", "64x32"],
            "fit-map": ["--frames", mini_pipeline / "frames"],
            "localize": ["--frames", mini_pipeline / "pred", "--map", mini_pipeline / "map.json"],
        }[stage]
        assert run(stage, *inputs, flag, value, "--out", out) == 2
        assert f"{flag} must be at least {least}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_exit_2(self, mini_pipeline, tmp_path, capsys, sigma):
        # unchecked, every predicted coordinate would be NaN
        out = tmp_path / "pred"
        assert run("predict-sim", "--frames", mini_pipeline / "frames",
                   "--map", mini_pipeline / "map.json", "--sigma", sigma, "--out", out) == 2
        assert f"coord_sigma must be finite and >= 0, got {sigma}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given, missing", [("--pred-frames", "--gt-frames"),
                                                ("--gt-frames", "--pred-frames")])
    def test_evaluate_frames_flag_alone_is_exit_2(self, mini_pipeline, tmp_path, capsys,
                                                  given, missing):
        # alone, either flag would silently skip the coordinate metrics
        out = tmp_path / "eval"
        assert run("evaluate", "--estimates", mini_pipeline / "loc" / "estimates.jsonl",
                   "--gt-poses", mini_pipeline / "gen" / "poses.jsonl",
                   given, mini_pipeline / "frames", "--out", out) == 2
        assert f"{given} needs {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_from_config_is_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max-corrs": -5}))
        assert run("localize", "--frames", tmp_path, "--map", tmp_path / "map.json",
                   "--config", config, "--out", tmp_path / "out") == 2
        assert "--max-corrs must be at least 0, got -5" in capsys.readouterr().err

    def test_generate_needs_preset_or_buildings(self, tmp_path):
        assert run("generate", "--poses", 2, "--out", tmp_path) == 2

    def test_bad_dims_is_exit_2(self, tmp_path):
        gen = tmp_path / "gen"
        run("generate", "--buildings", 2, "--grid", "2x2", "--poses", 1,
            "--seed", 0, "--out", gen)
        assert run("render", "--scene", gen / "scene.json",
                   "--poses", gen / "poses.jsonl", "--dims", "100x70",
                   "--out", tmp_path / "f") == 2

    def test_localize_partial_failure_continues(self, tmp_path):
        # one frame sees the building, one is too far away to resolve it
        import numpy as np
        from panoloc import fileio as fio
        from panoloc.geometry import Pose
        from panoloc.scene_sim import CityScene, Cuboid, raycast_render

        box = Cuboid(np.array([0.0, 3.0, 0.0]), np.array([3.0, 3.0, 3.0]), 0.1, 1000)
        scene = CityScene.from_cuboids((box,), 1, 0)
        frames = tmp_path / "frames"
        frames.mkdir()
        near = Pose(np.eye(3), -np.array([12.0, 2.0, 0.0]))
        far = Pose(np.eye(3), -np.array([5000.0, 2.0, 0.0]))
        for name, pose in (("000000", near), ("000001", far)):
            coords, labels = raycast_render(scene, pose, (64, 32))
            fio.save_coords(frames / f"{name}.scrd", coords)
            fio.save_labels(frames / f"{name}.lbls", labels)
        assert run("fit-map", "--frames", frames, "--out", tmp_path / "map.json") == 0
        assert run("localize", "--frames", frames, "--map", tmp_path / "map.json",
                   "--iterations", 50, "--out", tmp_path / "loc") == 0
        records = fileio.load_estimates_jsonl(tmp_path / "loc" / "estimates.jsonl")
        assert records[0][1] is not None
        assert records[1][1] is None
        assert "building pixels" in records[1][4]

    def test_localize_all_frames_failed_is_exit_3(self, tmp_path):
        # a city with no buildings leaves nothing to localize against
        gen = tmp_path / "gen"
        run("generate", "--buildings", 0, "--grid", "2x2", "--poses", 2,
            "--seed", 0, "--out", gen)
        frames = tmp_path / "frames"
        run("render", "--scene", gen / "scene.json", "--poses", gen / "poses.jsonl",
            "--dims", "64x32", "--out", frames)
        run("fit-map", "--frames", frames, "--out", tmp_path / "map.json")
        code = run("localize", "--frames", frames, "--map", tmp_path / "map.json",
                   "--iterations", 10, "--out", tmp_path / "loc")
        assert code == 3
        estimates = fileio.load_estimates_jsonl(tmp_path / "loc" / "estimates.jsonl")
        assert len(estimates) == 2
        assert all(rec[1] is None for rec in estimates)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 21,
            "generate": {"buildings": 5, "grid": "3x3", "poses": 3},
        }))
        out_a = tmp_path / "a"
        assert run("generate", "--config", config, "--out", out_a) == 0
        scene = fileio.load_scene(out_a / "scene.json")
        assert len(scene.buildings) == 5
        assert scene.seed == 21

        out_b = tmp_path / "b"
        assert run("generate", "--config", config, "--buildings", 7, "--out", out_b) == 0
        assert len(fileio.load_scene(out_b / "scene.json").buildings) == 7

    def test_missing_config_is_exit_2(self, tmp_path):
        assert run("generate", "--config", tmp_path / "none.json",
                   "--buildings", 2, "--out", tmp_path) == 2

    @pytest.mark.parametrize("body, key", [
        ({"iteratoins": 5}, "'iteratoins'"),
        ({"localize": {"iteratoins": 5}}, "'iteratoins'"),
        ({"generate": {"iterations": 5}}, "'iterations'"),  # a flag of another subcommand
        ({"localise": {"iterations": 5}}, "'localise'"),
        ({"generate": 5}, "'generate'"),
        ([{"seed": 1}], "JSON object"),
    ], ids=["typo", "typo-in-section", "flag-of-another-subcommand", "unknown-section",
            "section-not-an-object", "not-an-object"])
    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys, body, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(body))
        assert run("generate", "--config", config, "--buildings", 2, "--poses", 1,
                   "--out", tmp_path / "gen") == 2
        err = capsys.readouterr().err
        assert key in err and str(config) in err
        assert not (tmp_path / "gen").exists()

    def test_shared_keys_apply_where_they_are_flags(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 4, "iterations": 50, "generate": {"grid": "3x3"}}))
        assert run("generate", "--config", config, "--buildings", 2, "--poses", 1,
                   "--out", tmp_path / "gen") == 0
        flags = json.loads((tmp_path / "gen" / "generate_meta.json").read_text())["flags"]
        assert flags["seed"] == 4 and flags["grid"] == "3x3"
        assert "iterations" not in flags


    @pytest.mark.parametrize("stage, body, message", [
        ("evaluate", {"percentiles": 80}, "key 'percentiles' in config {} takes a string, got 80"),
        ("render", {"threads": 1.5}, "key 'threads' in config {} takes an integer, got 1.5"),
        ("render", {"render": {"threads": 2.0}}, "takes an integer, got 2.0"),
        ("localize", {"iterations": True}, "takes an integer, got true"),
        ("localize", {"max-corrs": "many"}, 'key \'max-corrs\' in config {} takes an integer, '
                                            'got "many"'),
        ("predict-sim", {"sigma": [0.3]}, "key 'sigma' in config {} takes a number, got [0.3]"),
        ("generate", {"grid": None}, "key 'grid' in config {} takes a string, got null"),
        ("generate", {"preset": "medium"}, 'takes one of small, large, got "medium"'),
        ("predict-sim", {"sigma": 10 ** 400},
         "key 'sigma' in config {} takes a number, got 1" + "0" * 400),
    ], ids=["number-for-string", "fraction-for-int", "float-for-int", "bool-for-int",
            "word-for-int", "list-for-float", "null-for-string", "not-a-choice",
            "integer-beyond-float"])
    def test_value_its_flag_would_not_take_is_exit_2(self, tmp_path, capsys, stage, body,
                                                     message):
        # a config value must be what the flag would take on the command line
        config = tmp_path / "config.json"
        config.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert run(stage, "--config", config, "--out", out) == 2
        assert message.format(config) in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_do_not_outlive_their_call(self, tmp_path):
        # the parser is reused across calls; a config must not leave its values in it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        flags = ["--buildings", 2, "--grid", "2x2", "--poses", 1]
        assert run("generate", "--config", config, *flags, "--out", tmp_path / "a") == 0
        assert run("generate", *flags, "--out", tmp_path / "b") == 0
        seeds = [json.loads((tmp_path / out / "generate_meta.json").read_text())["flags"]["seed"]
                 for out in ("a", "b")]
        assert seeds == [5, 0]

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        try:
            for out in ("a", "b"):
                assert run("generate", "--buildings", 2, "--grid", "2x2", "--poses", 1,
                           "--out", tmp_path / out) == 0
        finally:
            build_parser.cache_clear()
        assert built.count("panoloc") == 1

    def test_flags_are_spelled_in_full(self, tmp_path, capsys):
        # argparse would take --conf for --config, while the config scan would not read it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        flags = ["--buildings", 2, "--grid", "2x2", "--poses", 1]
        with pytest.raises(SystemExit) as exc:
            run("generate", "--conf", config, *flags, "--out", tmp_path / "a")
        assert exc.value.code == 2
        assert "unrecognized arguments: --conf" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert run("generate", f"--config={config}", *flags, "--out", tmp_path / "b") == 0
        meta = json.loads((tmp_path / "b" / "generate_meta.json").read_text())
        assert meta["flags"]["seed"] == 5

    def test_config_supplies_a_required_flag(self, mini_pipeline, tmp_path):
        gen = mini_pipeline / "gen"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"render": {"scene": str(gen / "scene.json"),
                                                 "poses": str(gen / "poses.jsonl")}}))
        out = tmp_path / "frames"
        assert run("render", "--config", config, "--dims", "128x64", "--out", out) == 0
        frames = sorted((mini_pipeline / "frames").glob("*.[sl][cb]*"))
        assert len(frames) == 10
        for path in frames:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_values_are_typed_like_flags(self, mini_pipeline, tmp_path):
        # strings go through the flag's type; a float flag takes an integer too
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "4", "threads": "2", "sigma": 1,
                                      "predict-sim": {"outlier-rate": "0.5"}}))
        out = tmp_path / "pred"
        assert run("predict-sim", "--frames", mini_pipeline / "frames",
                   "--map", mini_pipeline / "map.json", "--config", config, "--out", out) == 0
        flags = json.loads((out / "predict_sim_meta.json").read_text())["flags"]
        assert (flags["seed"], flags["threads"]) == (4, 2)
        assert (flags["sigma"], flags["outlier_rate"]) == (1.0, 0.5)
        assert all(type(flags[key]) is float for key in ("sigma", "outlier_rate"))

    def test_null_unsets_a_flag_whose_default_is_null(self, tmp_path, rng):
        # the fix fit-map --cloud names for a pipeline-wide "frames" key
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, rng.normal(size=(30, 3)), np.full(30, 1000, dtype=np.uint32))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frames": "f"}))
        out = tmp_path / "map.json"
        assert run("fit-map", "--cloud", cloud, "--config", config, "--out", out) == 2
        config.write_text(json.dumps({"frames": "f", "fit-map": {"frames": None}}))
        assert run("fit-map", "--cloud", cloud, "--config", config, "--out", out) == 0


class TestPresets:
    def test_large_preset_counts(self, tmp_path):
        assert run("generate", "--preset", "large", "--poses", 1,
                   "--seed", 1, "--out", tmp_path / "large") == 0
        scene = fileio.load_scene(tmp_path / "large" / "scene.json")
        assert len(scene.buildings) == 827
        assert scene.road_segments == 966

    def test_small_preset_counts(self, tmp_path):
        assert run("generate", "--preset", "small", "--poses", 1,
                   "--seed", 1, "--out", tmp_path / "small") == 0
        scene = fileio.load_scene(tmp_path / "small" / "scene.json")
        assert len(scene.buildings) == 102
        assert scene.road_segments == 156


class TestFitMapInputs:
    def test_map_has_the_bytes_of_the_fsum_oracle(self, mini_pipeline):
        # every building pixel of the rendered frames, in frame order
        frames = mini_pipeline / "frames"
        points, labels = [], []
        for frame in fileio.list_frames(frames):
            coords, labs = fileio.load_frame(frames, frame)
            sel = coords.mask & labs.instance_mask
            points.append(coords.coords[sel])
            labels.append(labs.labels[sel])
        text = fsum_map_json(np.concatenate(points), np.concatenate(labels))
        assert (mini_pipeline / "map.json").read_bytes() == text.encode("utf-8")

    def test_skipped_labels_report(self, tmp_path, rng):
        pts = np.vstack([rng.normal(size=(30, 3)) * 2.0, rng.normal(size=(2, 3))])
        labels = np.array([1000] * 30 + [1001] * 2, dtype=np.uint32)
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, pts, labels)
        assert run("fit-map", "--cloud", cloud, "--out", tmp_path / "map.json") == 0
        skipped = json.loads((tmp_path / "fit_map_skipped.json").read_text())
        assert skipped == {"1001": 2}


    def test_fit_map_from_ply_cloud(self, tmp_path, rng):
        pts = np.vstack([rng.normal(size=(30, 3)) * 2.0,
                         rng.normal(size=(30, 3)) + 50.0])
        labels = np.array([1000] * 30 + [1001] * 30, dtype=np.uint32)
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, pts, labels)
        out = tmp_path / "map.json"
        assert run("fit-map", "--cloud", cloud, "--out", out) == 0
        imap = fileio.load_instance_map(out)
        assert imap.instance_labels() == [1000, 1001]

    def test_malformed_cloud_exits_2(self, tmp_path, rng, capsys):
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, rng.normal(size=(30, 3)), np.full(30, 1000, dtype=np.uint32))
        cloud.write_text(cloud.read_text() + "1 2 3\n")
        assert run("fit-map", "--cloud", cloud, "--out", tmp_path / "map.json") == 2
        assert f"{cloud}, line 39:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--frames", "."), ("--seed", 3),
                                             ("--max-points-per-frame", 10)])
    def test_cloud_rejects_flags_of_frames(self, tmp_path, rng, capsys, flag, value):
        # these flags act only on --frames; with --cloud they would change nothing
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, rng.normal(size=(30, 3)), np.full(30, 1000, dtype=np.uint32))
        out = tmp_path / "out" / "map.json"
        assert run("fit-map", "--cloud", cloud, flag, value, "--out", out) == 2
        assert f"{flag} acts only on --frames" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_cloud_names_the_config_key_and_its_fix(self, tmp_path, rng, capsys):
        # a pipeline-wide config's top-level seed reaches fit-map too; with
        # --cloud it is rejected, and a fit-map section sets it back
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, rng.normal(size=(30, 3)), np.full(30, 1000, dtype=np.uint32))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        out = tmp_path / "out" / "map.json"
        assert run("fit-map", "--cloud", cloud, "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"config {config} sets 'seed'" in err and '"fit-map": {"seed": 0}' in err
        config.write_text(json.dumps({"seed": 7, "fit-map": {"seed": 0}}))
        assert run("fit-map", "--cloud", cloud, "--config", config, "--out", out) == 0

    def test_cloud_accepts_threads(self, tmp_path, rng):
        cloud = tmp_path / "cloud.ply"
        fileio.save_ply(cloud, rng.normal(size=(30, 3)), np.full(30, 1000, dtype=np.uint32))
        out = tmp_path / "map.json"
        assert run("fit-map", "--cloud", cloud, "--threads", 2, "--out", out) == 0
        assert fileio.load_instance_map(out).instance_labels() == [1000]

    def test_permuted_point_order_gives_identical_map(self, tmp_path, rng):
        pts = rng.normal(size=(60, 3)) * 4.0
        labels = np.full(60, 1000, dtype=np.uint32)
        perm = rng.permutation(60)
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        fileio.save_ply(a, pts, labels)
        fileio.save_ply(b, pts[perm], labels[perm])
        out_a, out_b = tmp_path / "ma.json", tmp_path / "mb.json"
        assert run("fit-map", "--cloud", a, "--out", out_a) == 0
        assert run("fit-map", "--cloud", b, "--out", out_b) == 0
        ma = fileio.load_instance_map(out_a).get(1000)
        mb = fileio.load_instance_map(out_b).get(1000)
        assert np.abs(ma.mean - mb.mean).max() < 1e-9
        assert np.abs(ma.unwhiten_matrix - mb.unwhiten_matrix).max() < 1e-9


class TestColdStart:
    def test_fit_map_and_predict_sim_do_not_import_numpy_ma(self, mini_pipeline, tmp_path):
        # np.unique imports numpy.ma, which costs a one-stage process ~15 ms
        frames, imap, pred = mini_pipeline / "frames", tmp_path / "map.json", tmp_path / "pred"
        script = (
            "import sys\n"
            "from panoloc.cli import main\n"
            f"assert main(['fit-map', '--frames', {str(frames)!r}, '--out', {str(imap)!r}]) == 0\n"
            f"assert main(['predict-sim', '--frames', {str(frames)!r}, '--map', {str(imap)!r},"
            f" '--label-flip-rate', '0.3', '--seed', '1', '--out', {str(pred)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(panoloc.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"
        flipped = sum(
            np.count_nonzero(fileio.load_frame(pred, f)[1].labels
                             != fileio.load_frame(frames, f)[1].labels)
            for f in fileio.list_frames(frames))
        assert flipped > 0


class TestBenchmarkTrace:
    def test_traced_round_records_every_span(self, mini_pipeline, tmp_path, monkeypatch):
        # the benchmark wraps module attributes by name: a call that goes
        # around one of them drops its span
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        worker = importlib.import_module("worker")
        gen, out = mini_pipeline / "gen", tmp_path
        stages = [
            ["render", "--scene", gen / "scene.json", "--poses", gen / "poses.jsonl",
             "--dims", "128x64", "--out", out / "frames"],
            ["fit-map", "--frames", out / "frames", "--out", out / "map.json"],
            ["predict-sim", "--frames", out / "frames", "--map", out / "map.json",
             "--sigma", "0.1", "--label-flip-rate", "0.02", "--seed", "3", "--out", out / "pred"],
            ["localize", "--frames", out / "pred", "--map", out / "map.json",
             "--iterations", "200", "--seed", "3", "--out", out / "loc"],
            ["evaluate", "--estimates", out / "loc" / "estimates.jsonl", "--gt-poses",
             gen / "poses.jsonl", "--pred-frames", out / "pred", "--gt-frames",
             out / "frames", "--out", out / "eval"],
        ]
        result = worker.run_round(panoloc, [[str(a) for a in argv] for argv in stages],
                                  traced=True)
        assert [error for _, error in result["stages"]] == [None] * len(stages)
        names = {span["name"] for span in result["spans"]}
        assert names >= {"fileio.read", "fileio.write", "scene_sim.raycast_render",
                         "scene_sim.simulate_predictions", "geometry.image_bearings",
                         "instance_map.build_instance_map", "pnp.ransac_pnp",
                         "pnp.epnp_bearing", "evaluation"}


class TestReadme:
    def test_every_readme_command_parses(self):
        # a flag deleted from the CLI must leave the README's commands too
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```bash\n(.*?)```", text, flags=re.S)
        commands = [shlex.split(line, comments=True) for block in blocks
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("panoloc ")]
        assert len(commands) >= 6
        parser, _ = build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            assert args.command == argv[1]
