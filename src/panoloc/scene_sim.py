"""Synthetic cuboid city: generation, ray-cast ground truth,
prediction-noise simulation and cuboid map approximation.

The world is y-up with an infinite ground plane at y = 0; buildings are
yawed cuboids resting on the ground, each carrying a globally unique
instance label. A ``CityScene`` stores its buildings as two read-only
arrays, validated once when the scene is built: ``boxes`` (B, 7) with one
row [cx, cy, cz, hx, hy, hz, yaw] per building, and ``box_labels`` (B,)
uint32. ``Cuboid`` is the value type of one row. Ray casting renders exact
per-pixel scene coordinates and panoptic labels for an equirectangular
camera, standing in for a learned coordinate predictor whose errors are
then simulated by a seeded noise model.

Ray casting culls (ray, box) pairs before the slab test. Each box gets a
view cone from the camera: its axis points at the box centre and its
half-angle is the largest angle from the axis to any of the 8 corners,
plus a margin of 1e-6 rad. A box is the convex hull of its corners and a
cone narrower than a half-space is convex, so the cone holds every point
of the box and every ray that can hit it (the camera is never inside a
box; rendering rejects that case). The cone becomes a latitude band of
rows and, unless it reaches a pole, a longitude band of columns that may
wrap across the +-pi seam; both are padded by one pixel. Cones of 80
degrees or more test every pixel. Only the pairs inside a box's window
run the slab test, with the same per-pair arithmetic as testing all
pairs, and the nearest hit wins with ties going to the lower box index,
so the output does not depend on the culling.

Boxes are also visited front to back, and a pair is dropped before its
slab test when its box lies beyond the ray's nearest box hit so far
(occlusion culling). A box's distance from the camera,
sqrt(sum(max(|o| - half, 0)^2)) over the axes of the box frame, with o the
camera in that frame, bounds the t of every hit on the box from below.
The slab test divides +-half - o, each rounded once, by the ray's
direction in the box frame, of unit length to within rounding, so its t
falls short of that bound by a few units in the last place at most.
Shrunk by a relative 1e-9 and an absolute 1e-9 m, the distance lies
below every t the slab test can return for the box; a dropped pair would
have a t above the ray's best, so it could neither win nor tie. Only box
hits bound a ray, never the ground, so every ray still gets its nearest
box hit. Boxes run by distance, not by index, so the tie rule is
explicit: a ray whose t improves forgets its box, and the lowest index
among all its pairs at the new best t wins.
"""

from dataclasses import dataclass, fields, replace
from functools import cached_property
import math

import numpy as np

from .geometry import Pose, heading_pose, image_bearings
from .images import (FIRST_INSTANCE_LABEL, ROAD_LABEL, SKY_LABEL, LabelImage,
                     SceneCoordinateImage)
from .instance_map import InstanceMap, unwhiten, whiten

__all__ = [
    "PlacementError",
    "Cuboid",
    "CityLayout",
    "CityScene",
    "NoiseModel",
    "generate_city",
    "sample_trajectory",
    "raycast_render",
    "simulate_predictions",
    "remove_buildings",
    "cuboid_approximation",
    "approximate_city",
    "SMALL_CITY",
    "LARGE_CITY",
]

_RAY_EPS = 1e-9

# A pixel's three float64 coordinates as one 24-byte item, and a row of NaNs
_PIXEL_ROW = np.dtype((np.void, 24))
_NAN_ROW = np.full(3, np.nan).view(_PIXEL_ROW)[0]

# Sign pattern of the 8 box corners, in a fixed order.
_CORNER_SIGNS = np.array([[sx, sy, sz]
                          for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])

# Building count and block grid of the two stock city sizes. Street
# frontage sections (one per block) are reported as road segments.
SMALL_CITY = {"n_buildings": 102, "grid_dims": (13, 12)}
LARGE_CITY = {"n_buildings": 827, "grid_dims": (42, 23)}
# Generated cities (m, rad): block side, street width, half-footprint and
# height ranges, largest yaw. A footprint's half diagonal, at most 9.19 m,
# leaves a building at least 0.56 m of its half block to be shifted in.
_BLOCK = 20.0
_STREET = 8.0
_FOOTPRINT = (3.5, 6.5)
_HEIGHT = (3.0, 15.0)
_YAW_MAX = 0.3
# Sampled cameras: height above the street (m) and heading jitter (rad).
_CAMERA_HEIGHT = 2.0
_HEADING_JITTER = 0.25


class PlacementError(ValueError):
    """City generation could not place the requested buildings."""


def _cos_sin(yaw):
    """cos and sin of yaw through math.cos and math.sin (np.cos may round differently)."""
    yaw = np.asarray(yaw, dtype=np.float64)
    return tuple(np.reshape(list(map(f, yaw.ravel().tolist())), yaw.shape)
                 for f in (math.cos, math.sin))


def _to_box_frame(points, center, cos, sin):
    """Points (..., 3) in the frames of boxes: local = Ry(yaw)^T @ (point - center).
    As Ry(yaw) = Ry(-yaw)^T, -sin for sin gives the box-to-world rotation, bit for bit."""
    p = points - center
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([cos * x - sin * z, y, sin * x + cos * z], axis=-1)


def _box_corners(center, half, cos, sin):
    """(..., 8, 3) corners, in a fixed sign order, of boxes given by centres and
    half extents (..., 3) and the cos and sin (...) of their yaws."""
    offsets = _to_box_frame(_CORNER_SIGNS * half[..., None, :], 0.0, cos[..., None],
                            -sin[..., None])
    return offsets + center[..., None, :]


def _checked_boxes(boxes, labels):
    """Read-only float64 (B, 7) boxes and uint32 (B,) labels; raises ValueError
    unless every value is finite, every half extent positive and every label
    a distinct integer from FIRST_INSTANCE_LABEL to 2**32 - 1."""
    boxes, labels = np.array(boxes, dtype=np.float64), np.asarray(labels)
    if (boxes.ndim != 2 or boxes.shape[1] != 7 or labels.shape != boxes.shape[:1]
            or labels.size and labels.dtype.kind not in "iu"):
        raise ValueError(f"need boxes of shape (B, 7) and B integer labels, got boxes of "
                         f"shape {boxes.shape} and labels of shape {labels.shape} ({labels.dtype})")
    for problem, bad in (
            ("a non-finite parameter", ~np.isfinite(boxes).all(axis=1)),
            ("a half extent that is not positive", ~(boxes[:, 3:6] > 0.0).all(axis=1)),
            (f"a label outside [{FIRST_INSTANCE_LABEL}, 2**32)",
             (labels < FIRST_INSTANCE_LABEL) | (labels > np.iinfo(np.uint32).max))):
        if bad.any():
            raise ValueError(f"building {np.flatnonzero(bad)[0]} has {problem}")
    ordered = np.sort(labels)  # np.unique would import numpy.ma, 15 ms of a cold start
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("building instance labels must be unique")
    labels = labels.astype(np.uint32)
    for array in (boxes, labels):
        array.setflags(write=False)
    return boxes, labels


def _values_equal(a, b) -> bool:
    """Field-by-field equality of two dataclass values, arrays compared by value."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a))


@dataclass(frozen=True, eq=False)
class Cuboid:
    """Yawed box resting on the ground: world = center + Ry(yaw) @ local.

    The value of one scene row, checked as CityScene checks its rows.
    """

    center: np.ndarray
    half_extents: np.ndarray
    yaw: float
    label: int

    def __post_init__(self):
        (row,), _ = _checked_boxes(
            [[*np.reshape(self.center, 3), *np.reshape(self.half_extents, 3), self.yaw]],
            [self.label])
        self.__dict__.update(center=row[0:3], half_extents=row[3:6], yaw=float(row[6]))

    @classmethod
    def _of_row(cls, row, label):
        """The Cuboid of a checked scene row, without checking it again."""
        box = object.__new__(cls)
        box.__dict__.update(center=row[0:3], half_extents=row[3:6], yaw=float(row[6]),
                            label=label)
        return box

    __eq__ = _values_equal

    def corners(self) -> np.ndarray:
        """(8, 3) world corners in a fixed sign order."""
        return _box_corners(self.center, self.half_extents, *_cos_sin(self.yaw))


@dataclass(frozen=True)
class CityLayout:
    """Street-grid metadata needed to sample trajectories."""

    grid_dims: tuple
    block: float
    street: float

    @property
    def pitch(self) -> float:
        return self.block + self.street

    def block_center(self, index: int) -> tuple:
        gx, gz = self.grid_dims
        i, j = index % gx, index // gx
        x = (i - (gx - 1) / 2.0) * self.pitch
        z = (j - (gz - 1) / 2.0) * self.pitch
        return x, z

    def segment_center(self, index: int) -> tuple:
        """Centre of the street section fronting block ``index`` (south side)."""
        x, z = self.block_center(index)
        return x, z - (self.block / 2.0 + self.street / 2.0)


@dataclass(frozen=True, eq=False)
class CityScene:
    """Buildings as packed read-only arrays (see the module docstring).

    ``from_cuboids`` builds a scene from ``Cuboid`` values; ``buildings``
    gives one ``Cuboid`` per row, built on first use.
    """

    boxes: np.ndarray
    box_labels: np.ndarray
    road_segments: int
    seed: int
    layout: CityLayout = None

    def __post_init__(self):
        boxes, labels = _checked_boxes(self.boxes, self.box_labels)
        cos, sin = _cos_sin(boxes[:, 6])
        self.__dict__.update(boxes=boxes, box_labels=labels, _cos_yaw=cos, _sin_yaw=sin)

    @classmethod
    def from_cuboids(cls, cuboids, road_segments, seed, layout=None) -> "CityScene":
        cuboids = tuple(cuboids)
        boxes = np.array([[*c.center, *c.half_extents, c.yaw] for c in cuboids]).reshape(-1, 7)
        return cls(boxes, np.array([c.label for c in cuboids], dtype=np.int64),
                   road_segments, seed, layout)

    __eq__ = _values_equal

    @cached_property
    def buildings(self) -> tuple:
        return tuple(map(Cuboid._of_row, self.boxes, self.box_labels.tolist()))

    def _corners(self, origin=0.0) -> np.ndarray:
        """(B, 8, 3) building corners relative to ``origin``."""
        return _box_corners(self.boxes[:, 0:3] - origin, self.boxes[:, 3:6],
                            self._cos_yaw, self._sin_yaw)

    def aabb(self, inflate: float = 0.0) -> np.ndarray:
        """(2, 3) bounds over building corners and the ground plane."""
        if not self.boxes.size:
            return np.array([[-1.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
        corners = self._corners().reshape(-1, 3)
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        lo[1] = min(lo[1], 0.0)
        span = hi - lo
        return np.array([lo - inflate * span, hi + inflate * span])


@dataclass(frozen=True)
class NoiseModel:
    """Surrogate for coordinate-predictor error.

    Gaussian jitter on coordinates, a fraction of pixels resampled
    uniformly inside the scene volume, and a fraction of building pixels
    whose instance label flips: the pixel keeps its local coordinates but
    is unwhitened with the wrong instance's transform, reproducing the
    dominant instance-misrecognition failure.
    """

    coord_sigma: float = 0.0
    outlier_rate: float = 0.0
    label_flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.coord_sigma < math.inf:  # NaN fails too
            raise ValueError(f"coord_sigma must be finite and >= 0, got {self.coord_sigma}")
        for name in ("outlier_rate", "label_flip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_city(n_buildings: int, grid_dims=(13, 12), seed: int = 0) -> CityScene:
    """Procedural street-grid city, deterministic per seed.

    Buildings occupy distinct blocks of an axis-aligned street grid with
    jittered footprints, heights and yaw; every building stays inside its
    block, so the scene is overlap-free by construction.
    """
    gx, gz = grid_dims
    n_blocks = gx * gz
    if n_buildings > n_blocks:
        raise PlacementError(
            f"cannot place {n_buildings} buildings on a {gx}x{gz} grid ({n_blocks} blocks)")

    layout = CityLayout((int(gx), int(gz)), _BLOCK, _STREET)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    chosen = np.sort(rng.permutation(n_blocks)[:n_buildings])

    boxes = np.empty((n_buildings, 7))
    for k, blk in enumerate(chosen):
        bx, bz = layout.block_center(int(blk))
        hx = rng.uniform(*_FOOTPRINT)
        hz = rng.uniform(*_FOOTPRINT)
        hy = rng.uniform(*_HEIGHT)
        yaw = rng.uniform(-_YAW_MAX, _YAW_MAX)
        margin = _BLOCK / 2.0 - math.hypot(hx, hz) - 0.25
        ox = rng.uniform(-margin, margin)
        oz = rng.uniform(-margin, margin)
        boxes[k] = (bx + ox, hy, bz + oz, hx, hy, hz, yaw)
    return CityScene(boxes, FIRST_INSTANCE_LABEL + np.arange(n_buildings), n_blocks,
                     int(seed), layout)


def sample_trajectory(scene: CityScene, n_poses: int, seed: int = 0) -> list:
    """[(frame_id, Pose)] cameras near road-segment centres.

    Cameras sit on street centrelines (buildings never reach them), at
    ``_CAMERA_HEIGHT`` above ground, heading along the street with seeded jitter.
    """
    if scene.layout is None:
        raise ValueError("scene carries no layout; trajectories are sampled at generation time")
    layout = scene.layout
    n_segments = scene.road_segments
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    frames = []
    for i in range(n_poses):
        seg = int(rng.integers(0, n_segments))
        x, z = layout.segment_center(seg)
        x += rng.uniform(-0.4, 0.4) * layout.block
        heading = math.pi / 2.0 + rng.uniform(-_HEADING_JITTER, _HEADING_JITTER)
        if rng.integers(0, 2):
            heading += math.pi
        frames.append((f"{i:06d}", heading_pose(np.array([x, _CAMERA_HEIGHT, z]), heading)))
    return frames


def remove_buildings(scene: CityScene, fraction: float, seed: int = 0) -> CityScene:
    """Drop a seeded uniform sample of floor(fraction * N) buildings."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    n = len(scene.boxes)
    k = int(math.floor(fraction * n))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    kept = np.ones(n, dtype=bool)
    kept[rng.permutation(n)[:k]] = False
    return replace(scene, boxes=scene.boxes[kept], box_labels=scene.box_labels[kept])


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------


# Angle added to every box's view cone, far above the rounding error of
# the corner and bearing arithmetic.
_CULL_MARGIN_RAD = 1e-6
# Cones this wide (a camera close to a box) test every pixel.
_CULL_MAX_HALF_ANGLE = math.radians(80.0)
# Candidate (ray, box) pairs slab-tested per batch. It bounds memory, and
# hits of earlier batches cull later ones; of 2**13 to 2**16, 2**14 and
# this size rendered 512x256 frames fastest, within 2% of each other.
_PAIR_BATCH = 1 << 15
# Relative and absolute (m) shrink of each box's camera distance before it
# bounds the slab t of the box's pairs, far above that arithmetic's rounding.
_OCCLUSION_MARGIN = 1e-9


def _pixel_windows(origin, rotation, scene, dims):
    """Conservative pixel window of every box: (row0, nrows, col0, ncols).

    Box ``b`` can only be hit by rays of rows ``row0 .. row0 + nrows - 1``
    and columns ``(col0 + k) % width`` for ``k < ncols``; see the module
    docstring for why no hit is lost.
    """
    width, height = dims
    corners = scene._corners(origin) @ rotation  # camera frame, (B, 8, 3)
    axis = (scene.boxes[:, 0:3] - origin) @ rotation
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    cos_angle = (np.einsum("bkj,bj->bk", corners, axis)
                 / np.linalg.norm(corners, axis=2))
    half_angle = np.arccos(np.clip(cos_angle.min(axis=1), -1.0, 1.0)) + _CULL_MARGIN_RAD

    # bearing = (cos(phi) sin(theta), -sin(phi), cos(phi) cos(theta))
    lat = np.arcsin(np.clip(-axis[:, 1], -1.0, 1.0))
    lon = np.arctan2(axis[:, 0], axis[:, 2])
    top, bottom = lat + half_angle, lat - half_angle
    row_scale = height / np.pi
    row0 = np.floor((np.pi / 2.0 - top) * row_scale - 0.5) - 1.0
    row1 = np.ceil((np.pi / 2.0 - bottom) * row_scale - 0.5) + 1.0
    row0 = np.clip(row0, 0, height - 1).astype(np.int64)
    row1 = np.clip(row1, 0, height - 1).astype(np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(half_angle) / np.cos(lat)
    pole = (top >= np.pi / 2.0) | (bottom <= -np.pi / 2.0) | ~(ratio < 1.0)
    half_lon = np.arcsin(np.where(pole, 1.0, ratio))
    col_scale = width / (2.0 * np.pi)
    col0 = np.floor((lon - half_lon + np.pi) * col_scale - 0.5) - 1.0
    col1 = np.ceil((lon + half_lon + np.pi) * col_scale - 0.5) + 1.0
    ncols = col1 - col0 + 1.0
    full_width = pole | (ncols >= width)
    col0 = np.where(full_width, 0, col0 % width).astype(np.int64)
    ncols = np.where(full_width, width, ncols).astype(np.int64)

    wide = half_angle >= _CULL_MAX_HALF_ANGLE
    row0[wide] = 0
    row1[wide] = height - 1
    col0[wide] = 0
    ncols[wide] = width
    return row0, row1 - row0 + 1, col0, ncols


def _window_pairs(windows, width, boxes):
    """(ray index, box index) of every pixel in the windows of ``boxes``."""
    row0, nrows, col0, ncols = (w[boxes] for w in windows)
    # one segment per (box, row): a run of ncols columns, wrapping at width
    seg = np.repeat(np.arange(boxes.size), nrows)
    seg_row = row0[seg] + np.arange(seg.size) - np.repeat(np.cumsum(nrows) - nrows, nrows)
    seg_len = ncols[seg]
    col = (np.repeat(col0[seg], seg_len) + np.arange(seg_len.sum())
           - np.repeat(np.cumsum(seg_len) - seg_len, seg_len))
    col[col >= width] -= width
    return np.repeat(seg_row * width, seg_len) + col, np.repeat(boxes[seg], seg_len)


def _intersect_boxes(origin, rotation, dirs, scene, dims):
    """Nearest slab-test hit per ray: (t, box index or -1).

    Only the (ray, box) pairs inside each box's pixel window are tested,
    nearest boxes first, and a pair whose box lies beyond its ray's best
    hit so far is dropped. Ties in t go to the lower box index. Raises
    ValueError if the camera is inside a box.
    """
    n = dirs.shape[0]
    nb = scene.boxes.shape[0]
    t_out = np.full(n, np.inf)
    idx_out = np.full(n, -1, dtype=np.int64)

    cos_yaw, sin_yaw = scene._cos_yaw, scene._sin_yaw
    o = _to_box_frame(origin, scene.boxes[:, 0:3], cos_yaw, sin_yaw).T
    half = scene.boxes[:, 3:6].T
    slab_lo = -half - o
    slab_hi = half - o
    inside = (o >= -half) & (o <= half)
    enclosing = np.flatnonzero(inside.all(axis=0))
    if enclosing.size:
        raise ValueError(f"camera centre lies inside building {scene.box_labels[enclosing[0]]}")
    # each box's camera distance, shrunk to bound its slab t from below
    near = np.sqrt(np.square(np.maximum(np.abs(o) - half, 0.0)).sum(axis=0))
    near = near * (1.0 - _OCCLUSION_MARGIN) - _OCCLUSION_MARGIN
    dir_x, dir_y, dir_z = dirs.T

    windows = _pixel_windows(origin, rotation, scene, dims)
    order = np.argsort(near, kind="stable")
    counts = (windows[1] * windows[3])[order]
    batch_of = (np.cumsum(counts) - counts) // _PAIR_BATCH
    for boxes in np.split(order, np.flatnonzero(np.diff(batch_of)) + 1):
        ray, box = _window_pairs(windows, dims[0], boxes)
        ahead = near[box] <= t_out[ray]
        ray, box = ray[ahead], box[ahead]
        dx0, dy0, dz0 = dir_x[ray], dir_y[ray], dir_z[ray]
        c, s = cos_yaw[box], sin_yaw[box]
        d = (c * dx0 - s * dz0, dy0, s * dx0 + c * dz0)

        for axis in range(3):
            da = d[axis]
            t1 = slab_lo[axis][box]
            t2 = slab_hi[axis][box]
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 /= da
                t2 /= da
            tn = np.minimum(t1, t2)
            tf = np.maximum(t1, t2, out=t1)
            if not da.all():
                zero, ins = da == 0.0, inside[axis][box]
                tn = np.where(zero, np.where(ins, -np.inf, np.inf), tn)
                tf = np.where(zero, np.where(ins, np.inf, -np.inf), tf)
            if axis == 0:
                tmin, tmax = tn, tf
            else:
                np.maximum(tmin, tn, out=tmin)
                np.minimum(tmax, tf, out=tmax)
        hit = (tmax >= tmin) & (tmin > _RAY_EPS)
        ray, box, t = ray[hit], box[hit], tmin[hit]

        # nearest hit per ray, then the lowest box index among every pair at
        # it; batches run by distance, not by index, so a ray whose t
        # improves forgets its earlier index
        t_before = t_out[ray]
        np.minimum.at(t_out, ray, t)
        best = t_out[ray]
        idx_out[ray[best < t_before]] = nb
        tie = t == best
        np.minimum.at(idx_out, ray[tie], box[tie])
    return t_out, idx_out


def raycast_render(scene: CityScene, pose: Pose, dims) -> tuple:
    """Exact ground truth: nearest cuboid/ground hit per pixel bearing.

    Returns (SceneCoordinateImage, LabelImage); rays that escape the scene
    get the sky label and NaN coordinates.
    """
    width, height = dims
    origin = pose.camera_center
    bearings = image_bearings(width, height)
    dirs = np.ascontiguousarray(bearings.reshape(-1, 3) @ pose.rotation.T)

    t_box, idx_box = _intersect_boxes(origin, pose.rotation, dirs, scene, dims)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = -origin[1] / dirs[:, 1]
    # a horizontal ray gets +inf, the value of a miss, or -inf or NaN, which fail t > eps
    t_ground = np.where(t_ground > _RAY_EPS, t_ground, np.inf)
    take_ground = t_ground < t_box
    t_hit = np.minimum(t_ground, t_box)

    # t * dir + origin has the bits of origin + t * dir. One column at a
    # time: broadcasting t as (n, 1) over (n, 3) runs n inner loops of 3.
    coords = np.empty_like(dirs)
    with np.errstate(invalid="ignore"):
        for j in range(3):
            column = coords[:, j]
            np.multiply(t_hit, dirs[:, j], out=column)
            np.add(column, origin[j], out=column)
    np.copyto(coords.view(_PIXEL_ROW).ravel(), _NAN_ROW, where=~np.isfinite(t_hit))
    # a box index of -1 (no box hit) picks the sky label at the end
    out_labels = np.append(scene.box_labels, np.uint32(SKY_LABEL))[idx_box]
    np.copyto(out_labels, ROAD_LABEL, where=take_ground)

    return (SceneCoordinateImage(coords.reshape(height, width, 3)),
            LabelImage(out_labels.reshape(height, width)))


# ---------------------------------------------------------------------------
# Prediction simulation
# ---------------------------------------------------------------------------



def _outlier_box(bounds, n: int) -> tuple:
    """(lo, span), each broadcast to (n, 3), of the box that
    ``rng.uniform(bounds[0], bounds[1], (n, 3))`` samples, with the checks
    that call makes."""
    lo = np.asarray(bounds[0], dtype=np.float64)
    span = np.subtract(np.asarray(bounds[1], dtype=np.float64), lo)
    if not np.isfinite(span).all():
        raise OverflowError("outlier bounds: hi - lo is not finite")
    if np.signbit(span).any():
        raise ValueError("outlier bounds: hi - lo < 0")
    return np.broadcast_to(lo, (n, 3)), np.broadcast_to(span, (n, 3))


def simulate_predictions(gt_coords: SceneCoordinateImage, gt_labels: LabelImage,
                         noise: NoiseModel, imap: InstanceMap,
                         bounds: np.ndarray = None) -> tuple:
    """Corrupt exact ground truth into surrogate predictions.

    Deterministic per ``noise.seed``. ``bounds`` is the (2, 3) volume for
    outlier resampling; defaults to the frame's own coordinate box
    inflated by 10% of its span (a span of at least 1 m) on each side.

    The noise stream is fixed: for a given seed the predictions keep their
    bytes. A Philox generator keyed (seed, 3) makes these draws, in this
    order, over the n valid pixels in raster order. Each step runs only
    when its sigma or rate is positive:

    1. ``normal(0, sigma, (n, 3))``, added to every valid pixel;
    2. ``uniform(size=n)``: valid pixel i becomes an outlier where draw i
       is below ``outlier_rate``;
    3. ``uniform(lo, hi, (n, 3))``: row i is the new coordinate of
       outlier i, and rows of other pixels go unused;
    4. ``uniform(size=m)``, over the m valid pixels labelled with a mapped
       instance, when the map holds at least two: pixel j flips where draw
       j is below ``label_flip_rate``;
    5. ``integers(0, L - 1, size=k)`` for the k flips: draw d picks the
       d-th of the L mapped labels in ascending order, skipping the
       pixel's own.

    A flipped pixel keeps its local coordinates under the wrong transform.
    Flips are whitened together per old label and unwhitened together per
    new label, each group in raster order; the last bits of a matrix
    product depend on the rows multiplied with it.
    """
    coords = gt_coords.coords.copy()
    labels = gt_labels.labels.copy()
    idx = np.flatnonzero(gt_coords.mask)
    n_valid = idx.size
    if n_valid == 0:
        return SceneCoordinateImage(coords), LabelImage(labels)

    rng = np.random.Generator(np.random.Philox(key=np.array([noise.seed, 3], dtype=np.uint64)))
    flat = coords.reshape(-1, 3)
    rows = np.take(flat, idx, axis=0)

    if noise.outlier_rate > 0.0 and bounds is None:
        # the box of the ground truth, so taken before the jitter; one column
        # at a time, as min/max over axis 0 of (n, 3) rows is ~6x slower
        lo = np.array([rows[:, j].min() for j in range(3)])
        hi = np.array([rows[:, j].max() for j in range(3)])
        span = np.maximum(hi - lo, 1.0)
        bounds = np.array([lo - 0.1 * span, hi + 0.1 * span])

    if noise.coord_sigma > 0.0:
        rows += rng.normal(0.0, noise.coord_sigma, size=(n_valid, 3))

    if noise.outlier_rate > 0.0:
        pick = np.flatnonzero(rng.uniform(size=n_valid) < noise.outlier_rate)
        lo, span = _outlier_box(bounds, n_valid)
        # the doubles of uniform(lo, hi, (n, 3)), which is lo + span * u,
        # evaluated for the picked rows only
        u = rng.random((n_valid, 3))
        rows[pick] = lo[pick] + span[pick] * u[pick]

    if noise.label_flip_rate > 0.0 and len(imap) >= 2:
        map_labels = np.array(imap.instance_labels(), dtype=np.uint32)
        flat_labels = labels.reshape(-1)
        pool = np.flatnonzero(np.isin(flat_labels[idx], map_labels))
        if pool.size:
            chosen = pool[rng.uniform(size=pool.size) < noise.label_flip_rate]
            if chosen.size:
                old = flat_labels[idx[chosen]]
                pos = np.searchsorted(map_labels, old)
                draw = rng.integers(0, len(map_labels) - 1, size=chosen.size)
                draw += draw >= pos
                new = map_labels[draw]
                moved = rows[chosen]
                local = np.empty_like(moved)
                # labels present, ascending (np.unique would import numpy.ma)
                for lab in map_labels[np.bincount(pos, minlength=map_labels.size) > 0]:
                    sel = old == lab
                    local[sel] = whiten(imap.get(int(lab)), moved[sel])
                for lab in map_labels[np.bincount(draw, minlength=map_labels.size) > 0]:
                    sel = new == lab
                    moved[sel] = unwhiten(imap.get(int(lab)), local[sel])
                rows[chosen] = moved
                flat_labels[idx[chosen]] = new

    # a pixel's row as one 24-byte item: np.put writes them ~5x faster than
    # an assignment through a fancy index into (N, 3)
    np.put(flat.view(_PIXEL_ROW).ravel(), idx, rows.view(_PIXEL_ROW).ravel())
    return SceneCoordinateImage(coords), LabelImage(labels)


# ---------------------------------------------------------------------------
# Cuboid approximation
# ---------------------------------------------------------------------------


def _fit_boxes(points: np.ndarray) -> np.ndarray:
    """(B, 7) boxes fitted to point sets (B, N, 3); see cuboid_approximation."""
    xz = points[..., [0, 2]]
    centered = xz - xz.mean(axis=1, keepdims=True)
    cov = np.swapaxes(centered, 1, 2) @ centered / points.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    yaw = np.arctan2(-evecs[:, 1, 1], evecs[:, 0, 1])
    yaw -= np.round(yaw / (np.pi / 2.0)) * (np.pi / 2.0)
    yaw[(evals[:, 1] <= 1e-12)
        | (evals[:, 1] - evals[:, 0] <= 1e-9 * np.maximum(evals[:, 1], 1e-12))] = 0.0
    cos, sin = _cos_sin(yaw)
    local = _to_box_frame(points, 0.0, cos[:, None], sin[:, None])
    lo, hi = local.min(axis=1), local.max(axis=1)
    center = _to_box_frame((lo + hi) / 2.0, 0.0, cos, -sin)
    return np.column_stack([center, np.maximum((hi - lo) / 2.0, 1e-6), yaw])


def cuboid_approximation(points: np.ndarray, label: int) -> Cuboid:
    """Fit a ground-aligned cuboid to one instance's point cloud.

    Yaw comes from the principal horizontal axis of the footprint
    (canonicalized to [-pi/4, pi/4); a box is symmetric under quarter
    turns), extents and centre from the bounds in the yawed frame. A
    footprint with no preferred direction falls back to zero yaw.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] < 4:
        raise ValueError(f"need at least 4 points to fit a cuboid, got {pts.shape[0]}")
    box = _fit_boxes(pts[None])[0]
    return Cuboid(box[0:3], box[3:6], box[6], int(label))


def _same_box_geometry(a: np.ndarray, b: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Whether corner sets (B, 8, 3) ``a`` and ``b`` match within ``tol``, box by box."""
    a, b = (np.take_along_axis(c, np.lexsort((c[..., 2], c[..., 1], c[..., 0]))[..., None], 1)
            for c in (a, b))
    return np.max(np.abs(a - b), axis=(1, 2)) <= tol


def approximate_city(scene: CityScene) -> CityScene:
    """Replace every building by its fitted cuboid approximation.

    Fitting runs on each building's corner cloud. When the fit reproduces
    the instance's geometry (the instance already is a cuboid), the
    original parameters are kept, making cuboid scenes exact fixed points
    of the approximation.
    """
    fit = replace(scene, boxes=_fit_boxes(scene._corners()))
    same = _same_box_geometry(fit._corners(), scene._corners())
    return replace(scene, boxes=np.where(same[:, None], scene.boxes, fit.boxes))
