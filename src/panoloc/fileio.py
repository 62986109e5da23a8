"""File formats for pipeline stages.

  Scene coordinates: "SCRD1\\n" + "W H 3\\n" + little-endian float32,
    row-major, channel-interleaved; NaN marks invalid pixels.
  Labels: "LBLS1\\n" + "W H\\n" + little-endian uint32 per pixel.
  Frame directories: one <frame>.scrd and one <frame>.lbls per frame;
    list_frames, load_frame, load_frame_coords and save_frame are the
    only code that knows this layout.
  Instance map: JSON {"labels": [{"id", "mean", "W", "count"}], "label_count"}
    with "W" the 3x3 unwhitening matrix in row-major order.
  Scene: JSON {"seed", "buildings": [{"center", "half_extents", "yaw",
    "label"}], "road_segments"}, one building per row of the scene's box
    array, plus "layout": {"grid_dims", "block", "street"} if it has one.
  Point clouds: ASCII PLY with float x, y, z and uint instance_label.
  Poses: JSON Lines, one record {"frame", "q", "t"} per frame: q is the
    unit quaternion [w, x, y, z] of the camera-to-world rotation with
    w >= 0, t the translation of the world->camera map. Estimate records
    add "inliers" and "mean_residual_deg"; a frame that failed is written
    {"frame", "failed": true, "reason"}.
  Evaluation CSV: roc.csv has the header "threshold_m,<column>,..." and
    one row per threshold, the threshold formatted with "g" and then each
    column's percentage of pixels within it; dist_curve.csv and
    angle_curve.csv have the header "rank,value" and one row per value.
    Values are written with repr, so they read back exactly.

All writers are deterministic: identical inputs give identical bytes.
They write a temporary file in the target's directory and rename it over
the target once it is complete, so a reader never sees a partial file and
re-running a stage never truncates an old output in place. Readers of the
binary images reject a malformed header, a short payload and trailing
bytes with a ValueError that names the file. The instance-map and scene
readers do the same for malformed JSON, a missing key, a value of the
wrong shape and a non-finite value; the first also for a singular W, the
second for a half extent that is not positive and a label below 1000,
above 2**32 - 1, not an integer or used twice. The pose and estimate
readers share one line reader, which does the same per line, naming the
line too: for a frame that is not a string or is repeated, a q that is not
4 finite numbers or is zero, and a t that is not 3 finite numbers. The
PLY reader names the file and line of a header other than save_ply's
(comment lines aside), a vertex line that is not three finite floats and
a label in [0, 2**32 - 1], and a vertex count other than the header's.
"""

from contextlib import contextmanager
from itertools import repeat
import json
from operator import itemgetter
import math
import os
from pathlib import Path
import threading

import numpy as np

from .geometry import Pose, _check_dims, quaternion_to_rotation, rotation_to_quaternion
from .images import NUM_CLASS_LABELS, LabelImage, SceneCoordinateImage
from .instance_map import InstanceMap, WhiteningTransform
from .scene_sim import CityLayout, CityScene

__all__ = [
    "atomic_open",
    "save_json",
    "save_coords",
    "load_coords",
    "save_labels",
    "load_labels",
    "save_instance_map",
    "load_instance_map",
    "save_scene",
    "load_scene",
    "list_frames",
    "load_frame",
    "load_frame_coords",
    "save_frame",
    "save_ply",
    "load_ply",
    "save_poses_jsonl",
    "load_poses_jsonl",
    "save_estimates_jsonl",
    "load_estimates_jsonl",
    "save_roc_csv",
    "save_curve_csv",
]

# Largest condition number of an instance map's W: beyond it, whitening
# through the inverse loses more than 1e-4 of the coordinates to rounding.
_MAX_CONDITION = 1e12
_COORD_MAGIC = b"SCRD1\n"
_LABEL_MAGIC = b"LBLS1\n"
_SCENE_KEYS = ("center", "half_extents", "yaw", "label")
_PLY_PROPERTIES = ["x", "y", "z", "instance_label"]
_PLY_ROW = np.dtype([("xyz", "<f8", (3,)), ("label", "<u4")])


@contextmanager
def atomic_open(path, mode="w"):
    """Open a temporary file next to ``path``; on success rename it to ``path``.

    ``mode`` is "w" (UTF-8 text) or "wb". If the block raises, the temporary
    file is removed and an existing ``path`` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path, doc, indent=1, **options) -> None:
    """Write a JSON document ending in a newline, one-space indented. With
    ``indent=None`` it is one line, encoded by json's C encoder; the
    indented form runs json's pure-Python encoder, ~3x slower on a large
    scene, so it serves only small documents (``save_instance_map`` writes
    the indented form of its own)."""
    text = json.dumps(doc, indent=indent, **options)
    with atomic_open(path) as fh:
        fh.write(text)
        fh.write("\n")


def _read_image(path, magic, kind, dtype, channels):
    """The payload of a SCRD/LBLS file, strictly checked: a (H, W, channels)
    array, or (H, W) when ``channels`` is None.

    The header is "W H", or "W H C" when ``channels`` is given; every pixel
    holds ``channels`` (or one) 4-byte values of ``dtype``.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a {kind} file")
        header = fh.readline().split()
        try:
            fields = [int(x) for x in header]
        except ValueError:
            fields = []
        if len(fields) != (2 if channels is None else 3):
            raise ValueError(f"{path}: malformed {kind} header {b' '.join(header)!r}")
        width, height = fields[:2]
        if channels is not None and fields[2] != channels:
            raise ValueError(f"{path}: expected {channels} channels, got {fields[2]}")
        with _named_errors(path, f"{kind} header"):
            _check_dims(width, height)
        size = width * height * (channels or 1) * 4
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise ValueError(f"{path}: truncated payload, {left} of {size} bytes")
        if left > size:
            raise ValueError(f"{path}: {left - size} trailing bytes after the payload")
        # read into the array itself: no bytes object to copy from
        payload = np.empty((height, width, channels or 1), dtype=dtype)
        if fh.readinto(payload) != size:
            raise ValueError(f"{path}: changed while it was read")
    return payload if channels else payload[..., 0]


def save_coords(path, image: SceneCoordinateImage) -> None:
    data = np.ascontiguousarray(image.coords, dtype="<f4")
    with atomic_open(path, "wb") as fh:
        fh.write(_COORD_MAGIC)
        fh.write(f"{image.width} {image.height} 3\n".encode("ascii"))
        fh.write(data.data)


def load_coords(path) -> SceneCoordinateImage:
    return SceneCoordinateImage(
        _read_image(path, _COORD_MAGIC, "scene-coordinate", "<f4", 3).astype(np.float64))


def save_labels(path, image: LabelImage) -> None:
    data = np.ascontiguousarray(image.labels, dtype="<u4")
    with atomic_open(path, "wb") as fh:
        fh.write(_LABEL_MAGIC)
        fh.write(f"{image.width} {image.height}\n".encode("ascii"))
        fh.write(data.data)


def load_labels(path) -> LabelImage:
    return LabelImage(_read_image(path, _LABEL_MAGIC, "label", "<u4", None))


def list_frames(frames_dir) -> list:
    """Sorted frame names in a frame directory; a ValueError names the
    directory if it holds no frame or a frame without its label file."""
    frames_dir = Path(frames_dir)
    frames = sorted(p.stem for p in frames_dir.glob("*.scrd"))
    if not frames:
        raise ValueError(f"no *.scrd frames in {frames_dir}")
    for frame in frames:
        if not (frames_dir / f"{frame}.lbls").exists():
            raise ValueError(f"{frames_dir}: missing label file for frame {frame}")
    return frames


def load_frame_coords(frames_dir, frame) -> SceneCoordinateImage:
    """The scene coordinates of one frame, without reading its labels."""
    return load_coords(Path(frames_dir) / f"{frame}.scrd")


def load_frame(frames_dir, frame) -> tuple:
    """(SceneCoordinateImage, LabelImage) of one frame."""
    return load_frame_coords(frames_dir, frame), load_labels(Path(frames_dir) / f"{frame}.lbls")


def save_frame(frames_dir, frame, coords: SceneCoordinateImage, labels: LabelImage) -> None:
    save_coords(Path(frames_dir) / f"{frame}.scrd", coords)
    save_labels(Path(frames_dir) / f"{frame}.lbls", labels)


# one instance-map record as json.dumps(doc, indent=1) lays it out, two levels deep
_MAP_RECORD = ('  {\n   "id": %d,\n   "mean": [\n' + ",\n".join(["    %r"] * 3) + "\n   ],\n"
               '   "W": [\n' + ",\n".join(["    %r"] * 9) + '\n   ],\n   "count": %d\n  }')


def save_instance_map(path, imap: InstanceMap) -> None:
    """Write the bytes ``save_json`` would write for the document
    {"labels": [{"id", "mean", "W", "count"}, ...], "label_count"}, records
    in label order: every float is its ``repr``, as json writes a finite
    float, laid out by format strings in place of json's pure-Python
    indenting encoder (~3x slower on the map of a large city)."""
    records = [_MAP_RECORD % (label, *tf.mean.tolist(), *tf.unwhiten_matrix.ravel().tolist(),
                              tf.point_count) for label, tf in sorted(imap.transforms.items())]
    labels = "[\n" + ",\n".join(records) + "\n ]" if records else "[]"
    with atomic_open(path) as fh:
        fh.write(f'{{\n "labels": {labels},\n "label_count": {int(imap.label_count)}\n}}\n')


@contextmanager
def _named_errors(where, kind):
    """A KeyError, TypeError (as from a document that is not an object),
    ValueError or OverflowError raised in the block names ``where``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: malformed {kind}: {exc}") from None


@contextmanager
def _json_document(path, kind):
    """Yield the JSON document in ``path``; errors in the block name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with _named_errors(path, kind):
        yield json.loads(text)


def load_instance_map(path) -> InstanceMap:
    with _json_document(path, "instance map") as doc:
        transforms = {}
        for rec in doc["labels"]:
            label = int(rec["id"])
            mean = np.array(rec["mean"], dtype=np.float64).reshape(3)
            unwhiten_matrix = np.array(rec["W"], dtype=np.float64).reshape(3, 3)
            if not (np.isfinite(mean).all() and np.isfinite(unwhiten_matrix).all()):
                raise ValueError(f"instance {label} has a non-finite mean or W")
            if not np.linalg.cond(unwhiten_matrix) <= _MAX_CONDITION:
                raise ValueError(f"instance {label} has a singular W")
            transforms[label] = WhiteningTransform(
                label=label,
                mean=mean,
                unwhiten_matrix=unwhiten_matrix,
                point_count=int(rec["count"]),
            )
        label_count = int(doc.get("label_count", NUM_CLASS_LABELS + len(transforms)))
    return InstanceMap(transforms, label_count)


def save_scene(path, scene: CityScene) -> None:
    boxes = scene.boxes
    # one {key: value} record per row, built in C with no Python loop over buildings
    rows = zip(boxes[:, 0:3].tolist(), boxes[:, 3:6].tolist(), boxes[:, 6].tolist(),
               scene.box_labels.tolist())
    doc = {
        "seed": int(scene.seed),
        "buildings": list(map(dict, map(zip, repeat(_SCENE_KEYS), rows))),
        "road_segments": int(scene.road_segments),
    }
    if scene.layout is not None:
        layout = scene.layout
        doc["layout"] = {"grid_dims": [int(x) for x in layout.grid_dims],
                         "block": float(layout.block), "street": float(layout.street)}
    save_json(path, doc, indent=None)


def load_scene(path) -> CityScene:
    with _json_document(path, "scene") as doc:
        records = doc["buildings"]
        n = len(records)
        # one column per key, gathered in C; (n, 3) needs 3 numbers per building
        center, half, yaw, labels = map(
            np.asarray, tuple(zip(*map(itemgetter(*_SCENE_KEYS), records))) or ((),) * 4)
        boxes = np.column_stack([np.reshape(center, (n, 3)), np.reshape(half, (n, 3)), yaw])
        layout = doc.get("layout")
        if layout is not None:
            layout = CityLayout(tuple(int(x) for x in layout["grid_dims"]),
                                float(layout["block"]), float(layout["street"]))
        return CityScene(boxes, labels, int(doc["road_segments"]), int(doc["seed"]), layout)


def save_ply(path, points: np.ndarray, labels: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    labs = np.asarray(labels).reshape(-1)
    if pts.shape[0] != labs.shape[0]:
        raise ValueError("points and labels must have matching lengths")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    with atomic_open(path) as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {pts.shape[0]}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uint instance_label\n")
        fh.write("end_header\n")
        fh.write("".join(f"{x!r} {y!r} {z!r} {int(lab)}\n"
                         for (x, y, z), lab in zip(pts.tolist(), labs.tolist())))


def _ply_header(path, lines) -> tuple:
    """(vertex count, header line count) of a PLY header: "ply", "format
    ascii 1.0", one "element vertex N" whose properties are x, y, z and
    instance_label, "end_header"; comment lines may sit anywhere in it."""
    if not lines or lines[0] != "ply":
        raise ValueError(f"{path}, line 1: not a PLY file")
    ascii_format, n_vertices, properties = False, None, []
    for number, line in enumerate(lines[1:], 2):
        words = line.split()
        if words == ["end_header"]:
            break
        if words[:1] == ["comment"]:
            continue
        if words == ["format", "ascii", "1.0"] and not ascii_format:
            ascii_format = True
        elif (words[:2] == ["element", "vertex"] and len(words) == 3 and words[2].isdigit()
              and n_vertices is None):
            n_vertices = int(words[2])
        elif words[:1] == ["property"] and len(words) == 3 and n_vertices is not None:
            properties.append(words[2])
        else:
            raise ValueError(f"{path}, line {number}: unexpected PLY header line {line!r}")
    else:
        raise ValueError(f"{path}: truncated PLY header")
    if not ascii_format or properties != _PLY_PROPERTIES:
        raise ValueError(f"{path}, line {number}: expected format ascii 1.0 and vertex "
                         f"properties {_PLY_PROPERTIES}, got {properties}")
    return n_vertices, number


def _ply_vertices(lines) -> np.ndarray:
    """Structured rows (xyz, label) of PLY vertex lines, parsed by one
    ``np.loadtxt``; a ValueError if a line is not three finite floats and a
    label in [0, 2**32 - 1]."""
    rows = np.loadtxt(lines, dtype=_PLY_ROW, ndmin=1, comments=None)
    # loadtxt skips blank lines and reads "nan" and "inf"
    if rows.size != len(lines) or not np.isfinite(rows["xyz"]).all():
        raise ValueError("blank line or non-finite coordinate")
    return rows


def load_ply(path):
    """Returns (points (N, 3), labels (N,)).

    Strict: after the header (see ``_ply_header``) come exactly N lines of
    three finite floats and an integer label in [0, 2**32 - 1]; anything
    else raises a ValueError naming the file and line.
    """
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not an ASCII PLY file: {exc}") from None
    n_vertices, n_header = _ply_header(path, lines)
    body = lines[n_header:]
    if len(body) != n_vertices:
        more = len(body) > n_vertices
        raise ValueError(f"{path}, line {n_header + min(len(body), n_vertices) + 1}: "
                         + ("data after the last vertex" if more else
                            f"expected {n_vertices} vertices, got {len(body)}"))
    if not body:
        return np.empty((0, 3)), np.empty(0, dtype=np.uint32)
    try:
        rows = _ply_vertices(body)
    except ValueError:
        # the first bad line, parsing one line at a time
        number, line = next((number, line) for number, line in enumerate(body, n_header + 1)
                            if not (line.split() and _parses(line)))
        raise ValueError(f"{path}, line {number}: expected x y z instance_label as three finite "
                         f"floats and an integer in [0, 2**32 - 1], got {line!r}") from None
    return np.ascontiguousarray(rows["xyz"]), rows["label"].copy()


def _parses(line) -> bool:
    try:
        _ply_vertices([line])
    except ValueError:
        return False
    return True


def _pose_record(frame, pose: Pose) -> dict:
    return {"frame": str(frame), "q": [float(x) for x in rotation_to_quaternion(pose.rotation)],
            "t": [float(x) for x in pose.translation]}


def _write_jsonl(path, records) -> None:
    with atomic_open(path) as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def save_poses_jsonl(path, frames_and_poses) -> None:
    _write_jsonl(path, (_pose_record(frame, pose) for frame, pose in frames_and_poses))


def save_estimates_jsonl(path, records) -> None:
    """Write (frame, pose | None, inliers, mean_residual_deg, reason | None) records."""
    _write_jsonl(path, ({"frame": str(frame), "failed": True, "reason": str(reason)} if pose is None
                        else {**_pose_record(frame, pose), "inliers": int(inliers),
                              "mean_residual_deg": float(mean_residual)}
                        for frame, pose, inliers, mean_residual, reason in records))


def _vector(rec, key, size) -> np.ndarray:
    value = rec[key]
    if not (isinstance(value, list) and len(value) == size
            and all(type(x) in (int, float) and math.isfinite(x) for x in value)):
        raise ValueError(f"{key!r} must be {size} finite numbers, got {value!r}")
    return np.array(value, dtype=np.float64)


def _pose(rec) -> Pose:
    return Pose(quaternion_to_rotation(_vector(rec, "q", 4)), _vector(rec, "t", 3))


def _read_jsonl(path, parse) -> list:
    """[parse(record)] for the records of a pose or estimate file: one JSON
    object per line, whose "frame" is a string that no other line repeats."""
    out, seen = [], set()
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                with _named_errors(f"{path}, line {number}", "record"):
                    rec = json.loads(line)
                    frame = rec["frame"]
                    if not isinstance(frame, str):
                        raise ValueError(f"frame {frame!r} is not a string")
                    if frame in seen:
                        raise ValueError(f"frame {frame!r} repeated")
                    seen.add(frame)
                    out.append(parse(rec))
    return out


def load_poses_jsonl(path) -> list:
    """Read [(frame, Pose)] from a pose file."""
    return _read_jsonl(path, lambda rec: (rec["frame"], _pose(rec)))


def load_estimates_jsonl(path) -> list:
    """Read [(frame, Pose | None, inliers, mean_residual_deg, reason | None)]."""
    return _read_jsonl(path, lambda rec: (
        (rec["frame"], None, 0, math.nan, str(rec["reason"])) if rec.get("failed") else
        (rec["frame"], _pose(rec), int(rec["inliers"]), float(rec["mean_residual_deg"]), None)))


def save_roc_csv(path, thresholds, columns) -> None:
    """Write roc.csv from [(name, percentages per threshold)] columns."""
    with atomic_open(path) as fh:
        fh.write("threshold_m," + ",".join(name for name, _ in columns) + "\n")
        for i, t in enumerate(thresholds):
            fh.write(f"{t:g}," + ",".join(f"{float(pct[i])!r}" for _, pct in columns) + "\n")


def save_curve_csv(path, values) -> None:
    """Write an error curve: one "rank,value" row per value, in order."""
    with atomic_open(path) as fh:
        fh.write("rank,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")
