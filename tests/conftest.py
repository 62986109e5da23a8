"""Shared fixtures and synthetic-data helpers."""

import json
import math

import numpy as np
import pytest

from panoloc.geometry import Pose, quaternion_to_rotation
from panoloc.images import FIRST_INSTANCE_LABEL, NUM_CLASS_LABELS
from panoloc.instance_map import EIGENVALUE_FLOOR, MIN_INSTANCE_POINTS, whiten
from panoloc.pnp import Correspondences


def random_pose(rng) -> Pose:
    rot = quaternion_to_rotation(rng.normal(size=4))
    center = rng.uniform(-20.0, 20.0, 3)
    return Pose(rot, -rot.T @ center)


def camera_to_world(pose: Pose, points) -> np.ndarray:
    """(N, 3) camera-frame points in the world: the inverse of
    ``pose.world_to_camera``, R (X - T) for each point X."""
    return (np.asarray(points, dtype=np.float64) - pose.translation) @ pose.rotation.T


def whiten_image(imap, coords: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(H, W, 3) local coordinates: each pixel whitened under its label's
    transform; NaN where the label has none or the coordinate is not finite."""
    out = np.full(coords.shape, np.nan)
    finite = np.isfinite(coords).all(axis=-1)
    for label, tf in imap.transforms.items():
        sel = (labels == label) & finite
        if np.any(sel):
            out[sel] = whiten(tf, coords[sel])
    return out


def fsum_whitening(points) -> tuple:
    """(mean, W) of one instance, the slow way: ``math.fsum`` for each mean
    and covariance entry, one ``eigh``, then descending eigenvalues, each
    eigenvector's largest-magnitude entry positive and det +1."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    mean = np.array([math.fsum(pts[:, j]) / n for j in range(3)])
    d = pts - mean
    cov = np.empty((3, 3))
    for j in range(3):
        for k in range(j, 3):
            cov[j, k] = cov[k, j] = math.fsum(d[:, j] * d[:, k]) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    for k in range(3):
        col = eigvecs[:, k]
        if col[np.argmax(np.abs(col))] < 0.0:
            eigvecs[:, k] = -col
    if np.linalg.det(eigvecs) < 0.0:
        eigvecs[:, 2] = -eigvecs[:, 2]
    return mean, eigvecs * np.sqrt(np.maximum(eigvals, 0.0) + EIGENVALUE_FLOOR)


def fsum_map_json(points, labels) -> str:
    """The map.json text of ``fsum_whitening`` fits of every instance with
    enough points, encoded by ``json.dumps(doc, indent=1)``."""
    records = []
    for label in sorted(set(labels[labels >= FIRST_INSTANCE_LABEL].tolist())):
        own = points[labels == label]
        if len(own) >= MIN_INSTANCE_POINTS:
            mean, w = fsum_whitening(own)
            records.append({"id": label, "mean": mean.tolist(), "W": w.ravel().tolist(),
                            "count": len(own)})
    doc = {"labels": records, "label_count": NUM_CLASS_LABELS + len(records)}
    return json.dumps(doc, indent=1) + "\n"


def synthetic_corrs(pose: Pose, n: int, rng, planar: bool = False,
                    depth=(2.0, 50.0)) -> Correspondences:
    """Exact correspondences generated by forward projection."""
    center = pose.camera_center
    if planar:
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        tangent = np.cross(normal, np.array([1.0, 0.31, -0.27]))
        tangent /= np.linalg.norm(tangent)
        bitangent = np.cross(normal, tangent)
        origin = center + normal * rng.uniform(depth[0] + 3.0, depth[1] / 2.0)
        uv = rng.uniform(-10.0, 10.0, (n, 2))
        pts = origin + uv[:, :1] * tangent + uv[:, 1:] * bitangent
    else:
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = center + dirs * rng.uniform(depth[0], depth[1], (n, 1))
    cam = pose.world_to_camera(pts)
    bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
    return Correspondences(bearings, pts)


def numeric_gradient(fn, coords: np.ndarray, indices, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar fn at selected flat indices."""
    out = np.empty(len(indices))
    flat = coords.reshape(-1)
    for k, idx in enumerate(indices):
        orig = flat[idx]
        flat[idx] = orig + h
        up = fn(coords)
        flat[idx] = orig - h
        down = fn(coords)
        flat[idx] = orig
        out[k] = (up - down) / (2.0 * h)
    return out


def gradient_close(analytic, numeric, rel_tol: float = 1e-4) -> bool:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return bool(np.all(np.abs(analytic - numeric) / scale < rel_tol))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
