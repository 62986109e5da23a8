"""Equirectangular camera model and rigid pose algebra.

Conventions used throughout the package:

  Camera frame (right-handed): x-right, y-down, z-forward.
  Equirectangular image: width W = 2H; longitude theta grows left to right
    with theta = 0 (forward, +z) at the image centre; latitude phi grows
    bottom to top with phi = 0 on the middle row. Pixel (u, v) addresses
    the centre of column u / row v, so the mapping adds half a pixel:
      theta = 2*pi*(u + 0.5)/W - pi,   phi = pi/2 - pi*(v + 0.5)/H
      bearing = (cos(phi)*sin(theta), -sin(phi), cos(phi)*cos(theta))
  Pose: rotation R is camera-to-world, translation T is defined by
      X_cam = R^T @ X_world + T
    so the camera centre in world coordinates is -R @ T.

This module does no file I/O; poses are written and read by fileio.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

__all__ = [
    "Pose",
    "pixel_to_bearing",
    "bearing_to_pixel",
    "image_bearings",
    "relative_pose_errors",
    "rotation_to_quaternion",
    "quaternion_to_rotation",
    "heading_pose",
]


def _check_dims(width: int, height: int) -> None:
    if height < 1 or width != 2 * height:
        raise ValueError(f"equirectangular dims must satisfy W = 2H, got {width}x{height}")


@dataclass(frozen=True)
class Pose:
    """Rigid camera pose; see module docstring for the convention."""

    rotation: np.ndarray  # (3, 3) camera-to-world
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64)
        tra = np.array(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if not np.isfinite(err) or err > 1e-6:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("rotation must be proper (det = +1)")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @property
    def camera_center(self) -> np.ndarray:
        """Camera centre in world coordinates, -R @ T."""
        return -self.rotation @ self.translation

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world point(s) (3,) or (N, 3) to the camera frame."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation.T @ pts + self.translation
        return pts @ self.rotation + self.translation


def pixel_to_bearing(u, v, width: int, height: int) -> np.ndarray:
    """Unit bearing vector(s) for pixel coordinate(s) (u, v).

    Scalars give a (3,) vector, arrays broadcast to (..., 3). Coordinates
    outside [0, W) x [0, H) raise ValueError.
    """
    _check_dims(width, height)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= width) or np.any(v < 0.0) or np.any(v >= height):
        raise ValueError("pixel coordinate outside image bounds")
    theta = 2.0 * np.pi * (u + 0.5) / width - np.pi
    phi = np.pi / 2.0 - np.pi * (v + 0.5) / height
    cp = np.cos(phi)
    return np.stack([cp * np.sin(theta), -np.sin(phi), cp * np.cos(theta)], axis=-1)


def bearing_to_pixel(bearing: np.ndarray, width: int, height: int):
    """Continuous pixel coordinates (u, v) of bearing vector(s).

    Longitude wraps so u lies in [0, W); v may touch the half-pixel band
    at the poles ([-0.5, H - 0.5], the poles landing on its ends exactly).
    """
    _check_dims(width, height)
    b = np.asarray(bearing, dtype=np.float64)
    if np.any(np.linalg.norm(b, axis=-1) < 1e-12):
        raise ValueError("bearing vector must be nonzero")
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    theta = np.arctan2(x, z)
    # atan2 keeps the latitude next to a pole, where arcsin(-y / |b|) loses it;
    # |phi| <= pi/2 makes phi / pi lie in [-0.5, 0.5] exactly, so v stays in range
    phi = np.arctan2(-y, np.hypot(x, z))
    u = (theta + np.pi) * width / (2.0 * np.pi) - 0.5
    v = (0.5 - phi / np.pi) * height - 0.5
    u = np.where(u < 0.0, u + width, u)
    return u, v


@functools.lru_cache(maxsize=4)
def image_bearings(width: int, height: int) -> np.ndarray:
    """(H, W, 3) array of unit bearings for every pixel centre.

    The grid is computed once per image size and shared between callers,
    so it is read-only; copy it before writing to it.
    """
    _check_dims(width, height)
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    grid = pixel_to_bearing(uu, vv, width, height)
    grid.flags.writeable = False
    return grid


def relative_pose_errors(a: Pose, b: Pose) -> tuple:
    """(distance in metres, rotation angle in degrees) between two poses.

    Distance compares camera centres; the angle is the geodesic rotation
    distance, clamped to [0, 180] degrees.
    """
    dist = float(np.linalg.norm(a.camera_center - b.camera_center))
    cos_angle = (np.trace(a.rotation.T @ b.rotation) - 1.0) / 2.0
    angle = math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))
    return dist, angle


def rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion [w, x, y, z] with w >= 0 for a rotation matrix."""
    m = np.asarray(rot, dtype=np.float64)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix for a quaternion [w, x, y, z] (normalized first)."""
    q = np.asarray(q, dtype=np.float64).reshape(4)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("quaternion must be nonzero")
    w, x, y, z = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def heading_pose(center: np.ndarray, heading: float) -> Pose:
    """Upright panorama pose at ``center`` looking along ``heading``.

    Heading is the angle of the forward axis in the world xz-plane
    (0 = +z). Image-down maps to world -y, so panoramas render upright
    in a y-up world.
    """
    c, s = math.cos(heading), math.sin(heading)
    rot = np.array([
        [-c, 0.0, s],
        [0.0, -1.0, 0.0],
        [s, 0.0, c],
    ])
    center = np.asarray(center, dtype=np.float64).reshape(3)
    translation = -rot.T @ center
    return Pose(rot, translation)
