"""Per-instance PCA whitening transforms between world and local coordinates.

Each building instance gets an affine map: local coordinates C relate to
world coordinates S through S = W @ C + M, where M is the instance mean and
W the unwhitening matrix from the eigendecomposition of the instance point
covariance. Whitening a fitted instance's own points yields zero mean and
identity covariance (up to the eigenvalue floor used for degenerate,
near-planar instances).
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .images import FIRST_INSTANCE_LABEL, NUM_CLASS_LABELS

__all__ = [
    "DegenerateInstanceError",
    "WhiteningTransform",
    "InstanceMap",
    "fit_whitening",
    "whiten",
    "unwhiten",
    "build_instance_map",
    "EIGENVALUE_FLOOR",
    "MIN_INSTANCE_POINTS",
]

# Variance floor (m^2) keeping transforms invertible for planar instances.
EIGENVALUE_FLOOR = 1e-8
MIN_INSTANCE_POINTS = 4


class DegenerateInstanceError(ValueError):
    """Instance has too few points to fit a whitening transform."""


@dataclass(frozen=True)
class WhiteningTransform:
    label: int
    mean: np.ndarray  # (3,) M
    unwhiten_matrix: np.ndarray  # (3, 3) W
    point_count: int

    def __post_init__(self):
        for name in ("mean", "unwhiten_matrix"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def whiten_matrix(self) -> np.ndarray:
        """(3, 3) W^-1, the same bits for a fitted transform and its reloaded copy."""
        inverse = np.linalg.inv(self.unwhiten_matrix)
        inverse.setflags(write=False)
        return inverse


def _exact_mean(points: np.ndarray) -> np.ndarray:
    """Column means via compensated summation, independent of point order."""
    n = points.shape[0]
    return np.array([math.fsum(points[:, j]) / n for j in range(3)])


def _exact_covariance(points: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Population covariance (divide by N) via compensated summation."""
    n = points.shape[0]
    d = points - mean
    cov = np.empty((3, 3))
    for j in range(3):
        for k in range(j, 3):
            cov[j, k] = cov[k, j] = math.fsum(d[:, j] * d[:, k]) / n
    return cov


def fit_whitening(points: np.ndarray, label: int) -> WhiteningTransform:
    """Fit the whitening transform of one instance from its world points.

    The eigenbasis is ordered by descending eigenvalue; each eigenvector's
    largest-magnitude entry is made positive and the basis determinant is
    forced to +1 by flipping the last column, so refits are reproducible.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] < MIN_INSTANCE_POINTS:
        raise DegenerateInstanceError(
            f"instance {label}: need at least {MIN_INSTANCE_POINTS} points, got {pts.shape[0]}")
    mean = _exact_mean(pts)
    cov = _exact_covariance(pts, mean)

    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    for k in range(3):
        col = eigvecs[:, k]
        if col[np.argmax(np.abs(col))] < 0.0:
            eigvecs[:, k] = -col
    if np.linalg.det(eigvecs) < 0.0:
        eigvecs[:, 2] = -eigvecs[:, 2]

    scales = np.sqrt(np.maximum(eigvals, 0.0) + EIGENVALUE_FLOOR)
    unwhiten_matrix = eigvecs * scales  # U @ diag(scales)
    return WhiteningTransform(int(label), mean, unwhiten_matrix, pts.shape[0])


def unwhiten(transform: WhiteningTransform, local: np.ndarray) -> np.ndarray:
    """World coordinates W @ C + M for local coordinate(s) (3,) or (N, 3)."""
    c = np.asarray(local, dtype=np.float64)
    if c.ndim == 1:
        return transform.unwhiten_matrix @ c + transform.mean
    return c @ transform.unwhiten_matrix.T + transform.mean


def whiten(transform: WhiteningTransform, world: np.ndarray) -> np.ndarray:
    """Local coordinates W^-1 @ (S - M); exact inverse of :func:`unwhiten`."""
    s = np.asarray(world, dtype=np.float64)
    if s.ndim == 1:
        return transform.whiten_matrix @ (s - transform.mean)
    return (s - transform.mean) @ transform.whiten_matrix.T


@dataclass
class InstanceMap:
    """Collection of per-instance whitening transforms.

    ``label_count`` is the total panoptic label count (class labels plus
    instances), i.e. the channel count a label predictor would output.
    ``skipped`` reports instances rejected for having too few points.
    """

    transforms: dict
    label_count: int
    skipped: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.transforms)

    def get(self, label) -> WhiteningTransform:
        return self.transforms[int(label)]

    def instance_labels(self) -> list:
        return sorted(self.transforms)


def build_instance_map(points: np.ndarray, labels: np.ndarray) -> InstanceMap:
    """Fit one whitening transform per building-instance label.

    ``points`` is (N, 3); ``labels`` the matching (N,) panoptic labels.
    Class labels carry no transform. Instances with fewer than
    ``MIN_INSTANCE_POINTS`` points are skipped and reported, not fatal.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    labs = np.asarray(labels).reshape(-1)
    if pts.shape[0] != labs.shape[0]:
        raise ValueError("points and labels must have matching lengths")

    transforms = {}
    skipped = {}
    # a stable sort keeps every instance's points in their input order; split where
    # the label changes (np.unique would import numpy.ma, 15 ms of a cold start)
    instance = np.flatnonzero(labs >= FIRST_INSTANCE_LABEL)
    order = instance[np.argsort(labs[instance], kind="stable")]
    ordered = labs[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    for members in np.split(order, starts) if order.size else ():
        label = int(labs[members[0]])
        if members.size < MIN_INSTANCE_POINTS:
            skipped[label] = members.size
            continue
        transforms[label] = fit_whitening(pts[members], label)
    return InstanceMap(transforms, NUM_CLASS_LABELS + len(transforms), skipped)
