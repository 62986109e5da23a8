import dataclasses
import json
from pathlib import Path
import re
import tempfile

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from conftest import random_pose
from panoloc import fileio
from panoloc.fileio import load_poses_jsonl, save_poses_jsonl
from panoloc.geometry import Pose, quaternion_to_rotation, relative_pose_errors
from panoloc.images import NUM_CLASS_LABELS, LabelImage, SceneCoordinateImage
from panoloc.instance_map import InstanceMap, WhiteningTransform, build_instance_map, whiten
from panoloc.scene_sim import (CityLayout, CityScene, Cuboid, generate_city, remove_buildings,
                               sample_trajectory)


class TestCoordFiles:
    def test_round_trip_with_nans(self, tmp_path, rng):
        coords = rng.uniform(-100, 100, (8, 16, 3))
        coords[rng.uniform(size=(8, 16)) < 0.3] = np.nan
        img = SceneCoordinateImage(coords)
        path = tmp_path / "frame.scrd"
        fileio.save_coords(path, img)
        back = fileio.load_coords(path)
        # stored as float32; NaN pattern must survive exactly
        assert np.array_equal(back.mask, img.mask)
        assert np.allclose(back.coords[back.mask], coords[img.mask], atol=1e-3)

    def test_header_layout(self, tmp_path):
        img = SceneCoordinateImage(np.zeros((4, 8, 3)))
        path = tmp_path / "f.scrd"
        fileio.save_coords(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"SCRD1\n8 4 3\n")
        assert len(raw) == len(b"SCRD1\n8 4 3\n") + 4 * 8 * 3 * 4

    def test_float32_stability(self, tmp_path, rng):
        coords = rng.uniform(-100, 100, (4, 8, 3)).astype(np.float32).astype(np.float64)
        img = SceneCoordinateImage(coords)
        p1, p2 = tmp_path / "a.scrd", tmp_path / "b.scrd"
        fileio.save_coords(p1, img)
        fileio.save_coords(p2, fileio.load_coords(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.scrd"
        path.write_bytes(b"NOPE!\n8 4 3\n" + b"\x00" * 384)
        with pytest.raises(ValueError, match="not a scene-coordinate"):
            fileio.load_coords(path)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), height=st.integers(1, 6))
    def test_save_load_save_property(self, data, height):
        # every float32 value, NaN channels and whole NaN pixels included
        coords = data.draw(arrays(np.float32, (height, 2 * height, 3),
                                  elements=st.floats(width=32)))
        img = SceneCoordinateImage(coords.astype(np.float64))
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.scrd", Path(tmp) / "b.scrd"
            fileio.save_coords(a, img)
            back = fileio.load_coords(a)
            assert np.array_equal(back.coords, img.coords, equal_nan=True)
            fileio.save_coords(b, back)
            assert a.read_bytes() == b.read_bytes()


class TestLabelFiles:
    def test_round_trip(self, tmp_path, rng):
        labels = LabelImage(rng.choice([0, 1, 2, 1000, 2000], size=(8, 16)).astype(np.uint32))
        path = tmp_path / "frame.lbls"
        fileio.save_labels(path, labels)
        back = fileio.load_labels(path)
        assert np.array_equal(back.labels, labels.labels)

    def test_header_layout(self, tmp_path):
        img = LabelImage(np.zeros((4, 8), dtype=np.uint32))
        path = tmp_path / "f.lbls"
        fileio.save_labels(path, img)
        assert path.read_bytes().startswith(b"LBLS1\n8 4\n")


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), height=st.integers(1, 6))
    def test_save_load_save_property(self, data, height):
        labels = data.draw(arrays(np.uint32, (height, 2 * height),
                                  elements=st.integers(0, 2**32 - 1)))
        img = LabelImage(labels)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.lbls", Path(tmp) / "b.lbls"
            fileio.save_labels(a, img)
            back = fileio.load_labels(a)
            assert back.labels.dtype == np.uint32 and np.array_equal(back.labels, labels)
            fileio.save_labels(b, back)
            assert a.read_bytes() == b.read_bytes()


IMAGE_FORMATS = [
    (fileio.save_coords, fileio.load_coords, ".scrd",
     lambda: SceneCoordinateImage(np.arange(8 * 16 * 3, dtype=np.float64).reshape(8, 16, 3)),
     b"SCRD1\n", b" 3"),
    (fileio.save_labels, fileio.load_labels, ".lbls",
     lambda: LabelImage(np.arange(8 * 16, dtype=np.uint32).reshape(8, 16)),
     b"LBLS1\n", b""),
]


@pytest.mark.parametrize("save, load, suffix, make, magic, tail", IMAGE_FORMATS,
                         ids=["scrd", "lbls"])
class TestStrictImageReaders:
    def test_truncated_payload(self, tmp_path, save, load, suffix, make, magic, tail):
        path = tmp_path / f"short{suffix}"
        save(path, make())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"short{suffix}.*truncated"):
            load(path)

    def test_header_claiming_a_huge_image_is_truncated(self, tmp_path, save, load, suffix,
                                                      make, magic, tail):
        # 2e12 pixels: the reader must compare with the file size before it
        # allocates the payload
        path = tmp_path / f"huge{suffix}"
        path.write_bytes(magic + b"2000000 1000000" + tail + b"\n" + bytes(64))
        with pytest.raises(ValueError, match=f"huge{suffix}.*truncated payload, 64 of"):
            load(path)

    def test_trailing_bytes(self, tmp_path, save, load, suffix, make, magic, tail):
        path = tmp_path / f"long{suffix}"
        save(path, make())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"long{suffix}.*1 trailing bytes"):
            load(path)

    @pytest.mark.parametrize("dims", [b"16 9", b"0 0", b"-16 -8", b"16 x", b"16", b"16 8 3 1"],
                             ids=["w-not-2h", "zero", "negative", "not-int", "short", "long"])
    def test_bad_header(self, tmp_path, save, load, suffix, make, magic, tail, dims):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(magic + dims + tail + b"\n" + b"\x00" * 4096)
        with pytest.raises(ValueError, match=f"bad{suffix}"):
            load(path)


class TestAtomicWrites:
    def test_rewrite_leaves_same_bytes_and_no_temporary_files(self, tmp_path, rng):
        scene = generate_city(6, (3, 3), seed=2)
        points = rng.uniform(-5, 5, (40, 3))
        labels = np.repeat(np.array([1000, 1001], dtype=np.uint32), 20)
        writers = {
            "a.scrd": lambda p: fileio.save_coords(p, IMAGE_FORMATS[0][3]()),
            "a.lbls": lambda p: fileio.save_labels(p, IMAGE_FORMATS[1][3]()),
            "map.json": lambda p: fileio.save_instance_map(p, build_instance_map(points, labels)),
            "scene.json": lambda p: fileio.save_scene(p, scene),
            "cloud.ply": lambda p: fileio.save_ply(p, points, labels),
            "est.jsonl": lambda p: fileio.save_estimates_jsonl(p, [("000000", None, 0, 0.0, "x")]),
        }
        first = {}
        for name, write in writers.items():
            write(tmp_path / name)
            first[name] = (tmp_path / name).read_bytes()
        for name, write in writers.items():
            write(tmp_path / name)
            assert (tmp_path / name).read_bytes() == first[name]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with fileio.atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_rewrite_replaces_the_file_instead_of_truncating_it(self, tmp_path):
        path = tmp_path / "frame.lbls"
        fileio.save_labels(path, IMAGE_FORMATS[1][3]())
        old = path.stat().st_ino
        with open(path, "rb") as reader:
            fileio.save_labels(path, LabelImage(np.zeros((8, 16), dtype=np.uint32)))
            # a reader of the old file still sees all of it
            assert len(reader.read()) == len(b"LBLS1\n16 8\n") + 8 * 16 * 4
        assert path.stat().st_ino != old


class TestInstanceMapFile:
    def test_round_trip(self, tmp_path, rng):
        pts = np.vstack([rng.normal(size=(50, 3)) * 3.0,
                         rng.normal(size=(50, 3)) * 2.0 + 40.0])
        labels = np.array([1000] * 50 + [1007] * 50)
        imap = build_instance_map(pts, labels)
        path = tmp_path / "map.json"
        fileio.save_instance_map(path, imap)
        back = fileio.load_instance_map(path)
        assert back.instance_labels() == [1000, 1007]
        assert back.label_count == imap.label_count
        for label in (1000, 1007):
            a, b = imap.get(label), back.get(label)
            assert np.abs(a.mean - b.mean).max() < 1e-12
            assert np.abs(a.unwhiten_matrix - b.unwhiten_matrix).max() < 1e-12
            assert np.abs(b.unwhiten_matrix @ b.whiten_matrix - np.eye(3)).max() < 1e-8
            assert a.point_count == b.point_count

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(st.tuples(
               st.integers(1000, 2**32 - 1),
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=12,
                        max_size=12),
               st.integers(0, 2**63)), unique_by=lambda r: r[0], max_size=6),
           label_count=st.integers(0, 2**40))
    @example(records=[], label_count=3)
    def test_writes_the_bytes_of_json_dumps(self, records, label_count):
        # the layout and float reprs of json.dumps(doc, indent=1), any finite values
        transforms = {label: WhiteningTransform(label, np.array(v[:3]),
                                                np.reshape(v[3:], (3, 3)), count)
                      for label, v, count in records}
        doc = {"labels": [{"id": label, "mean": v[:3], "W": v[3:], "count": count}
                          for label, v, count in sorted(records)],
               "label_count": label_count}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.json"
            fileio.save_instance_map(path, InstanceMap(transforms, label_count))
            assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"

    def test_deterministic_bytes(self, tmp_path, rng):
        pts = rng.normal(size=(20, 3))
        imap = build_instance_map(pts, np.full(20, 1000))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.save_instance_map(p1, imap)
        fileio.save_instance_map(p2, imap)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60),
           spread=st.tuples(*[st.floats(1e-2, 1e2)] * 3), offset=st.floats(-1e4, 1e4))
    def test_fitted_and_reloaded_maps_whiten_to_the_same_bits(self, seed, n, spread, offset):
        # predict-sim whitens a loaded map; a fitted one must give the same bits
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3)) * np.array(spread) + offset
        imap = build_instance_map(points, np.full(n, 1000))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.json"
            fileio.save_instance_map(path, imap)
            back = fileio.load_instance_map(path)
        world = np.vstack([points, rng.uniform(-1e4, 1e4, (20, 3))])
        fitted, loaded = imap.get(1000), back.get(1000)
        assert np.array_equal(whiten(fitted, world), whiten(loaded, world))
        assert all(np.array_equal(whiten(fitted, p), whiten(loaded, p)) for p in world[:5])


    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(st.tuples(
               st.integers(1000, 2**32 - 1),
               st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
               st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
               st.tuples(*[st.floats(1e-3, 1e3)] * 3),
               st.integers(4, 10**9)), unique_by=lambda r: r[0], max_size=5),
           extra_labels=st.integers(0, 100))
    def test_save_load_save_property(self, records, extra_labels):
        # W = rotation @ diag(scales) keeps every W far from singular
        transforms = {}
        for label, mean, quat, scales, count in records:
            if np.linalg.norm(quat) < 0.1:
                quat = [1.0, 0.0, 0.0, 0.0]
            unwhiten_matrix = quaternion_to_rotation(np.array(quat)) * np.array(scales)
            transforms[label] = WhiteningTransform(label, np.array(mean), unwhiten_matrix, count)
        imap = InstanceMap(transforms, NUM_CLASS_LABELS + len(transforms) + extra_labels)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            fileio.save_instance_map(a, imap)
            back = fileio.load_instance_map(a)
            assert back.label_count == imap.label_count and not back.skipped
            assert back.instance_labels() == imap.instance_labels()
            for label in imap.instance_labels():
                want, got = imap.get(label), back.get(label)
                assert got.label == want.label and got.point_count == want.point_count
                for name in ("mean", "unwhiten_matrix", "whiten_matrix"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
            fileio.save_instance_map(b, back)
            assert a.read_bytes() == b.read_bytes()


def _break_map(doc, how):
    rec = doc["labels"][0]
    if how.startswith("no-"):
        del (doc if how == "no-labels" else rec)[how[3:]]
    elif how == "W-shape":
        rec["W"] = rec["W"][:8]
    elif how == "W-singular":
        rec["W"] = [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 0.0, 1.0]
    elif how == "W-ill-conditioned":
        rec["W"] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-14]
    elif how == "W-nan":
        rec["W"][4] = float("nan")
    elif how == "W-inf":
        rec["W"][0] = float("inf")
    elif how == "mean-nan":
        rec["mean"][1] = float("nan")
    elif how == "mean-shape":
        rec["mean"] = rec["mean"][:2]
    elif how == "labels-not-a-list":
        doc["labels"] = 5
    return doc


class TestStrictInstanceMapReader:
    @pytest.mark.parametrize("how", [
        "no-labels", "no-id", "no-mean", "no-W", "no-count", "W-shape", "W-singular",
        "W-ill-conditioned", "W-nan", "W-inf", "mean-nan", "mean-shape", "labels-not-a-list"])
    def test_malformed_map_names_the_file(self, tmp_path, rng, how):
        path = tmp_path / "map.json"
        fileio.save_instance_map(path, build_instance_map(rng.normal(size=(20, 3)),
                                                          np.full(20, 1000)))
        path.write_text(json.dumps(_break_map(json.loads(path.read_text()), how)))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.load_instance_map(path)

    @pytest.mark.parametrize("text", ['{"labels": [', '[1, 2]'])
    def test_not_a_map_object_names_the_file(self, tmp_path, text):
        path = tmp_path / "map.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.load_instance_map(path)


class TestSceneFile:
    def test_round_trip(self, tmp_path):
        scene = generate_city(12, (4, 4), seed=3)
        path = tmp_path / "scene.json"
        fileio.save_scene(path, scene)
        back = fileio.load_scene(path)
        assert back.seed == scene.seed
        assert back.road_segments == scene.road_segments
        assert len(back.buildings) == 12
        for a, b in zip(scene.buildings, back.buildings):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.half_extents, b.half_extents)
            assert a.yaw == b.yaw
            assert a.label == b.label

    def test_round_trip_keeps_layout(self, tmp_path):
        # a layout other than the generated one's, so the file must carry it
        scene = dataclasses.replace(generate_city(12, (4, 4), seed=3),
                                    layout=CityLayout((4, 4), 22.0, 9.0))
        path = tmp_path / "scene.json"
        fileio.save_scene(path, scene)
        back = fileio.load_scene(path)
        for (fa, pa), (fb, pb) in zip(sample_trajectory(scene, 5, seed=4),
                                      sample_trajectory(back, 5, seed=4)):
            assert fa == fb
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)
        assert back.layout == scene.layout

    def test_loaded_scene_equals_the_saved_one(self, tmp_path):
        scene = generate_city(12, (4, 4), seed=3)
        fileio.save_scene(tmp_path / "scene.json", scene)
        back = fileio.load_scene(tmp_path / "scene.json")
        assert back == scene and back.buildings == scene.buildings
        assert back != remove_buildings(scene, 0.5, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.tuples(*[st.floats(-1e6, 1e6)] * 3),
               st.tuples(*[st.floats(1e-6, 1e4)] * 3),
               st.floats(-4.0, 4.0)), max_size=6),
           first_label=st.integers(1000, 2**32 - 7), seed=st.integers(0, 2**31),
           layout=st.none() | st.tuples(st.integers(1, 50), st.integers(1, 50),
                                        st.floats(0.5, 100.0), st.floats(0.5, 100.0)))
    def test_round_trip_property(self, rows, first_label, seed, layout):
        # save, load, compare equal; a second save writes the same bytes
        cuboids = [Cuboid(np.array(c), np.array(h), yaw, first_label + k)
                   for k, (c, h, yaw) in enumerate(rows)]
        if layout is not None:
            layout = CityLayout(layout[:2], *layout[2:])
        scene = CityScene.from_cuboids(cuboids, 4, seed, layout)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            fileio.save_scene(a, scene)
            back = fileio.load_scene(a)
            assert back == scene
            fileio.save_scene(b, back)
            assert a.read_bytes() == b.read_bytes()


def _break_scene(doc, how):
    rec = doc["buildings"][0]
    if how.startswith("no-"):
        del (rec if how[3:] in rec else doc)[how[3:]]
    elif how == "center-nan":
        rec["center"][0] = float("nan")
    elif how == "yaw-inf":
        rec["yaw"] = float("inf")
    elif how == "half-negative":
        rec["half_extents"][2] = -1.0
    elif how == "half-zero":
        rec["half_extents"][0] = 0.0
    elif how == "center-shape":
        rec["center"] = rec["center"][:2]
    elif how == "half-shape":
        rec["half_extents"].append(1.0)
    elif how == "yaw-list":
        rec["yaw"] = [rec["yaw"]]
    elif how == "label-low":
        rec["label"] = 999
    elif how == "label-high":
        rec["label"] = 2**32
    elif how == "label-float":
        rec["label"] = 1000.5
    elif how == "label-duplicate":
        rec["label"] = doc["buildings"][1]["label"]
    elif how == "buildings-not-a-list":
        doc["buildings"] = 5
    elif how == "not-an-object":
        doc = [doc]
    return doc


class TestStrictSceneReader:
    @pytest.mark.parametrize("how", [
        "no-center", "no-half_extents", "no-yaw", "no-label", "no-buildings", "no-seed",
        "no-road_segments", "center-nan", "yaw-inf", "half-negative", "half-zero",
        "center-shape", "half-shape", "yaw-list", "label-low", "label-high", "label-float",
        "label-duplicate", "buildings-not-a-list", "not-an-object"])
    def test_malformed_scene_names_the_file(self, tmp_path, how):
        path = tmp_path / "scene.json"
        fileio.save_scene(path, generate_city(3, (2, 2), seed=1))
        path.write_text(json.dumps(_break_scene(json.loads(path.read_text()), how)))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.load_scene(path)

    def test_scene_without_buildings_loads(self, tmp_path):
        scene = generate_city(0, (2, 2), seed=1)
        fileio.save_scene(tmp_path / "scene.json", scene)
        back = fileio.load_scene(tmp_path / "scene.json")
        assert back == scene and back.boxes.shape == (0, 7)


class TestPlyFile:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.uniform(-50, 50, (100, 3))
        labels = rng.choice([1000, 1001, 2], size=100).astype(np.uint32)
        path = tmp_path / "cloud.ply"
        fileio.save_ply(path, pts, labels)
        back_pts, back_labels = fileio.load_ply(path)
        assert np.array_equal(back_pts, pts)
        assert np.array_equal(back_labels, labels)

    def test_header(self, tmp_path):
        path = tmp_path / "c.ply"
        fileio.save_ply(path, np.zeros((1, 3)), np.array([1000]))
        text = path.read_text().splitlines()
        assert text[0] == "ply"
        assert "element vertex 1" in text
        assert "property uint instance_label" in text

    @settings(max_examples=50, deadline=None)
    @given(points=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                           max_size=20),
           labels=st.lists(st.integers(0, 2**32 - 1), min_size=20, max_size=20))
    def test_save_load_save_keeps_bytes(self, points, labels):
        pts = np.array(points, dtype=np.float64).reshape(-1, 3)
        labs = np.array(labels[:len(points)], dtype=np.uint32)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.ply", Path(tmp) / "b.ply"
            fileio.save_ply(a, pts, labs)
            back_pts, back_labels = fileio.load_ply(a)
            fileio.save_ply(b, back_pts, back_labels)
            assert a.read_bytes() == b.read_bytes()
        assert back_pts.tobytes() == pts.tobytes() and back_labels.tobytes() == labs.tobytes()

    HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
              "property float z\nproperty uint instance_label\nend_header\n")

    @pytest.mark.parametrize("text, line", [
        (HEADER + "1 2 3 1000\n4 5 6\n", 10),  # short vertex line
        (HEADER + "1 2 3 1000\n4 5 6 1000 7\n", 10),
        (HEADER + "1 2 nan 1000\n4 5 6 1000\n", 9),
        (HEADER + "1 2 3 1000\n4 -inf 6 1000\n", 10),
        (HEADER + "1 2 3 1000\n4 5 6 1000\n7 8 9 1000\n", 11),  # trailing line
        (HEADER + "1 2 3 1000\n\n", 10),
        (HEADER + "1 2 3 1000\n", 10),  # one vertex short
        (HEADER + "1 2 3 -1\n4 5 6 1000\n", 9),
        (HEADER + "1 2 3 4294967296\n4 5 6 1000\n", 9),
        (HEADER + "1 2 3 1000.5\n4 5 6 1000\n", 9),
        (HEADER + "1 2 x 1000\n4 5 6 1000\n", 9),
        (HEADER.replace("element vertex 2\n", ""), 3),  # no element vertex
        (HEADER.replace("vertex 2", "vertex two"), 3),
        (HEADER.replace("ascii", "binary_little_endian"), 2),
        (HEADER.replace("format ascii 1.0\n", ""), 7),
        (HEADER.replace("property float z\n", ""), 7),
        ("plyx\n", 1),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}:")):
            fileio.load_ply(path)

    def test_truncated_header_and_non_ascii_name_the_file(self, tmp_path):
        path = tmp_path / "bad.ply"
        for raw in (b"ply\nformat ascii 1.0\n", b"ply\ncomment \xff\nend_header\n"):
            path.write_bytes(raw)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                fileio.load_ply(path)

    def test_comments_and_empty_cloud_load(self, tmp_path):
        path = tmp_path / "c.ply"
        fileio.save_ply(path, np.empty((0, 3)), np.empty(0, dtype=np.uint32))
        pts, labels = fileio.load_ply(path)
        assert pts.shape == (0, 3) and labels.shape == (0,) and labels.dtype == np.uint32
        path.write_text(self.HEADER.replace("ply\n", "ply\ncomment made by hand\n")
                        + "1 2 3 1000\n4 5 6 1001\n")
        pts, labels = fileio.load_ply(path)
        assert pts.tolist() == [[1, 2, 3], [4, 5, 6]] and labels.tolist() == [1000, 1001]

    def test_save_rejects_non_finite_points(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            fileio.save_ply(tmp_path / "c.ply", np.array([[0.0, np.nan, 1.0]]), np.array([1000]))


class TestEstimateFiles:
    def test_round_trip_with_failures(self, tmp_path, rng):
        from conftest import random_pose
        pose = random_pose(rng)
        records = [
            ("000000", pose, 120, 0.004, None),
            ("000001", None, 0, float("nan"), "only 2 usable building pixels"),
        ]
        path = tmp_path / "estimates.jsonl"
        fileio.save_estimates_jsonl(path, records)
        back = fileio.load_estimates_jsonl(path)
        assert back[0][0] == "000000"
        assert back[0][2] == 120
        assert back[0][3] == pytest.approx(0.004)
        assert back[1][1] is None
        assert "building pixels" in back[1][4]


class TestPoseFile:
    def test_round_trip(self, tmp_path, rng):
        frames = [(f"{i:06d}", random_pose(rng)) for i in range(7)]
        path = tmp_path / "poses.jsonl"
        save_poses_jsonl(path, frames)
        loaded = load_poses_jsonl(path)
        assert [f for f, _ in loaded] == [f for f, _ in frames]
        for (_, orig), (_, back) in zip(frames, loaded):
            dist, angle = relative_pose_errors(orig, back)
            assert dist < 1e-12
            assert angle < 1e-6

    def test_quaternion_sign_normalized(self, tmp_path, rng):
        import json
        frames = [(str(i), random_pose(rng)) for i in range(20)]
        path = tmp_path / "poses.jsonl"
        save_poses_jsonl(path, frames)
        for line in path.read_text().splitlines():
            assert json.loads(line)["q"][0] >= 0.0

    def test_deterministic_bytes(self, tmp_path, rng):
        frames = [(str(i), random_pose(rng)) for i in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_poses_jsonl(p1, frames)
        save_poses_jsonl(p2, frames)
        assert p1.read_bytes() == p2.read_bytes()


class TestEvaluationCsv:
    def test_roc_layout_and_exact_values(self, tmp_path):
        pct = [np.array([12.5, 1 / 3]), np.array([100.0, 0.0])]
        fileio.save_roc_csv(tmp_path / "roc.csv", [0.1, 5.0], list(zip(("a", "b"), pct)))
        assert (tmp_path / "roc.csv").read_text() == (
            f"threshold_m,a,b\n0.1,12.5,100.0\n5,{1 / 3!r},0.0\n")

    def test_curve_layout_and_exact_values(self, tmp_path):
        values = np.array([0.1 + 0.2, 2.0, np.float32(0.3)])
        fileio.save_curve_csv(tmp_path / "curve.csv", values)
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "rank,value"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]
        assert np.array_equal([float(line.split(",")[1]) for line in lines[1:]], values)


class TestFrameDirectories:
    def test_saved_frames_load_back_in_order(self, tmp_path, rng):
        images = {}
        for frame in ("000002", "000000", "000001"):
            coords = rng.uniform(-50, 50, (4, 8, 3))
            coords[0, 0] = np.nan
            labels = rng.integers(0, 2000, (4, 8)).astype(np.uint32)
            fileio.save_frame(tmp_path, frame, SceneCoordinateImage(coords), LabelImage(labels))
            images[frame] = (coords.astype(np.float32), labels)
        assert fileio.list_frames(tmp_path) == ["000000", "000001", "000002"]
        for frame, (coords, labels) in images.items():
            back_coords, back_labels = fileio.load_frame(tmp_path, frame)
            assert np.array_equal(back_coords.coords, coords, equal_nan=True)
            assert np.array_equal(back_labels.labels, labels)
            assert np.array_equal(fileio.load_frame_coords(tmp_path, frame).coords,
                                  back_coords.coords, equal_nan=True)

    def test_bad_directory_is_named(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"no *.scrd frames in {tmp_path}")):
            fileio.list_frames(tmp_path)
        fileio.save_frame(tmp_path, "000000", SceneCoordinateImage(np.zeros((2, 4, 3))),
                          LabelImage(np.zeros((2, 4), dtype=np.uint32)))
        (tmp_path / "000000.lbls").unlink()
        with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path))}.*frame 000000"):
            fileio.list_frames(tmp_path)
        # the coordinates of a frame load without its label file
        assert fileio.load_frame_coords(tmp_path, "000000").coords.shape == (2, 4, 3)


GOOD_POSE = '{"frame": "000000", "q": [1.0, 0.0, 0.0, 0.0], "t": [1.0, 2.0, 3.0]}'
GOOD_ESTIMATE = ('{"frame": "000000", "q": [1.0, 0.0, 0.0, 0.0], "t": [1.0, 2.0, 3.0], '
                 '"inliers": 10, "mean_residual_deg": 0.1}')
BAD_POSE_LINES = {
    "not-json": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [0, 0, 0]',
    "not-an-object": '["000001", [1, 0, 0, 0], [0, 0, 0]]',
    "no-frame": '{"q": [1, 0, 0, 0], "t": [0, 0, 0]}',
    "frame-not-a-string": '{"frame": 1, "q": [1, 0, 0, 0], "t": [0, 0, 0]}',
    "repeated-frame": '{"frame": "000000", "q": [1, 0, 0, 0], "t": [0, 0, 0]}',
    "no-q": '{"frame": "000001", "t": [0, 0, 0]}',
    "q-nan": '{"frame": "000001", "q": [NaN, 0, 0, 1], "t": [0, 0, 0]}',
    "q-inf": '{"frame": "000001", "q": [Infinity, 0, 0, 1], "t": [0, 0, 0]}',
    "q-short": '{"frame": "000001", "q": [1, 0, 0], "t": [0, 0, 0]}',
    "q-zero": '{"frame": "000001", "q": [0, 0, 0, 0], "t": [0, 0, 0]}',
    "q-strings": '{"frame": "000001", "q": ["1", "0", "0", "0"], "t": [0, 0, 0]}',
    "q-huge-int": '{"frame": "000001", "q": [1' + '0' * 400 + ', 0, 0, 0], "t": [0, 0, 0]}',
    "no-t": '{"frame": "000001", "q": [1, 0, 0, 0]}',
    "t-nan": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [0, NaN, 0]}',
    "t-inf": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [0, 0, -Infinity]}',
    "t-long": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [0, 0, 0, 0]}',
    "t-null": '{"frame": "000001", "q": [1, 0, 0, 0], "t": null}',
    "t-bools": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [true, false, true]}',
}
BAD_ESTIMATE_LINES = {
    **{how: line.replace("}", ', "inliers": 10, "mean_residual_deg": 0.1}')
       for how, line in BAD_POSE_LINES.items() if how != "not-json"},
    "not-json": BAD_POSE_LINES["not-json"],
    "no-inliers": '{"frame": "000001", "q": [1, 0, 0, 0], "t": [0, 0, 0], '
                  '"mean_residual_deg": 0.1}',
    "failed-without-reason": '{"frame": "000001", "failed": true}',
}


class TestStrictPoseReaders:
    @pytest.mark.parametrize("how", BAD_POSE_LINES)
    def test_bad_pose_line_names_file_and_line(self, tmp_path, how):
        path = tmp_path / "poses.jsonl"
        path.write_text(f"{GOOD_POSE}\n\n{BAD_POSE_LINES[how]}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            load_poses_jsonl(path)

    @pytest.mark.parametrize("how", BAD_ESTIMATE_LINES)
    def test_bad_estimate_line_names_file_and_line(self, tmp_path, how):
        path = tmp_path / "estimates.jsonl"
        path.write_text(f"{GOOD_ESTIMATE}\n{BAD_ESTIMATE_LINES[how]}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
            fileio.load_estimates_jsonl(path)

    def test_failed_record_is_no_pose(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text('{"frame": "000000", "failed": true, "reason": "x"}\n')
        with pytest.raises(ValueError, match="missing key 'q'"):
            load_poses_jsonl(path)


finite = st.floats(allow_nan=False, allow_infinity=False)
poses = st.builds(
    lambda q, t: Pose(quaternion_to_rotation(q), t),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 1e-3),
    st.lists(finite, min_size=3, max_size=3))


def assert_resave_keeps_records(first, second):
    """Two files hold the same records, keys in the same order; q may differ
    in its last bits, as a quaternion -> rotation -> quaternion trip rounds."""
    lines_a, lines_b = first.read_text().splitlines(), second.read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    for a, b in zip(lines_a, lines_b):
        rec_a, rec_b = json.loads(a), json.loads(b)
        assert list(rec_a) == list(rec_b)
        q_a, q_b = rec_a.pop("q", None), rec_b.pop("q", None)
        assert rec_a == rec_b
        if q_a is not None:
            assert np.abs(quaternion_to_rotation(q_a) - quaternion_to_rotation(q_b)).max() < 1e-14


class TestPoseRecordRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(st.tuples(st.text(), poses), unique_by=lambda r: r[0], max_size=6))
    def test_poses_save_load_save(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            save_poses_jsonl(first, records)
            back = load_poses_jsonl(first)
            assert [frame for frame, _ in back] == [frame for frame, _ in records]
            for (_, pose), (_, loaded) in zip(records, back):
                assert np.array_equal(loaded.translation, pose.translation)
                assert np.abs(loaded.rotation - pose.rotation).max() < 1e-14
            save_poses_jsonl(second, back)
            assert_resave_keeps_records(first, second)

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(
        st.tuples(st.text(), st.none() | poses, st.integers(0, 10 ** 6), finite, st.text()),
        unique_by=lambda r: r[0], max_size=6))
    def test_estimates_save_load_save(self, records):
        records = [(frame, pose, inliers, residual, None if pose else reason)
                   for frame, pose, inliers, residual, reason in records]
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            fileio.save_estimates_jsonl(first, records)
            back = fileio.load_estimates_jsonl(first)
            for (frame, pose, inliers, residual, reason), loaded in zip(records, back, strict=True):
                assert loaded[0] == frame and loaded[4] == reason
                if pose is None:
                    assert loaded[1] is None and loaded[2] == 0 and np.isnan(loaded[3])
                else:
                    assert np.array_equal(loaded[1].translation, pose.translation)
                    assert loaded[2:4] == (inliers, residual)
            fileio.save_estimates_jsonl(second, back)
            assert_resave_keeps_records(first, second)
