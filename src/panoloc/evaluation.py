"""Accuracy metrics for scene coordinates and estimated poses.

Conventions fixed for reproducibility: distance thresholds are inclusive
(d <= t), percentiles interpolate linearly between closest ranks, pixels
without ground truth are excluded from denominators, and predictions
missing where ground truth exists count as failures at every threshold.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .images import SceneCoordinateImage

__all__ = [
    "EmptyMetricsError",
    "percentile_linear",
    "CoordMetrics",
    "PoseMetrics",
    "coord_distances",
    "coord_metrics",
    "pose_metrics",
    "error_curves",
    "roc_percentages",
    "CONVENTIONS",
]

CONVENTIONS = {
    "thresholds": "inclusive (d <= t)",
    "percentile": "linear interpolation between closest ranks",
    "denominator": "pixels valid in ground truth; missing predictions fail all thresholds",
}


class EmptyMetricsError(ValueError):
    """No pixels (or pose errors) to evaluate."""


@dataclass
class CoordMetrics:
    pct_within_0_5m: float
    pct_within_1m: float
    pct_within_3m: float
    mean_dist_within_3m: float
    n_valid: int


@dataclass
class PoseMetrics:
    median_dist_m: float
    p95_dist_m: float
    median_angle_deg: float
    p95_angle_deg: float
    extra_percentiles: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "median_dist_m": self.median_dist_m,
            "p95_dist_m": self.p95_dist_m,
            "median_angle_deg": self.median_angle_deg,
            "p95_angle_deg": self.p95_angle_deg,
        }
        if self.extra_percentiles:
            out["extra_percentiles"] = {
                f"{p:g}": {"dist_m": d, "angle_deg": a}
                for p, (d, a) in sorted(self.extra_percentiles.items())
            }
        return out


def coord_distances(pred: SceneCoordinateImage, gt: SceneCoordinateImage):
    """Per-pixel distances over ground-truth-valid pixels, in raster order.

    Pixels where the prediction is missing come back infinite.
    Returns (distances, n_valid), n_valid being their count.
    """
    if pred.coords.shape != gt.coords.shape:
        raise ValueError("prediction and ground truth dims differ")
    idx = np.flatnonzero(gt.mask)
    # np.take of flat rows gathers ~6x faster than a boolean index into (H, W, 3)
    diff = (np.take(pred.coords.reshape(-1, 3), idx, axis=0)
            - np.take(gt.coords.reshape(-1, 3), idx, axis=0))
    # spelled out per component so a scalar recomputation reproduces the bits
    dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
                   + diff[:, 2] * diff[:, 2])
    dist[~np.isfinite(dist)] = np.inf
    return dist, dist.size


def coord_metrics(dist: np.ndarray) -> CoordMetrics:
    """Coordinate accuracy from per-pixel distances (see
    :func:`coord_distances`), pooled over one or more frames."""
    n_valid = dist.size
    if n_valid == 0:
        raise EmptyMetricsError("no overlapping valid pixels to evaluate")
    within3 = dist <= 3.0
    return CoordMetrics(
        pct_within_0_5m=100.0 * float((dist <= 0.5).sum()) / n_valid,
        pct_within_1m=100.0 * float((dist <= 1.0).sum()) / n_valid,
        pct_within_3m=100.0 * float(within3.sum()) / n_valid,
        mean_dist_within_3m=float(dist[within3].mean()) if within3.any() else 0.0,
        n_valid=n_valid,
    )


def percentile_linear(values, q: float) -> float:
    """Percentile ``q`` in [0, 100] by linear interpolation between closest
    ranks.

    Spelled out (rather than delegated to numpy) so the convention is
    pinned for reproducibility across library versions.
    """
    if not 0.0 <= q <= 100.0:  # NaN fails too
        raise ValueError(f"percentile {q} is outside [0, 100]")
    x = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    if x.size == 0:
        raise EmptyMetricsError("no values for percentile")
    pos = (x.size - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, x.size - 1)
    return float(x[lo] + (pos - lo) * (x[hi] - x[lo]))


def pose_metrics(errors, percentiles=()) -> PoseMetrics:
    """Median/95th-percentile distance and angular errors.

    ``errors`` is a sequence of (distance_m, angle_deg);
    ``percentiles`` requests extra levels (e.g. 80).
    """
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.size == 0:
        raise EmptyMetricsError("no pose errors to evaluate")
    arr = arr.reshape(-1, 2)
    dists, angles = arr[:, 0], arr[:, 1]
    extras = {
        float(p): (percentile_linear(dists, p), percentile_linear(angles, p))
        for p in percentiles
    }
    return PoseMetrics(
        median_dist_m=percentile_linear(dists, 50),
        p95_dist_m=percentile_linear(dists, 95),
        median_angle_deg=percentile_linear(angles, 50),
        p95_angle_deg=percentile_linear(angles, 95),
        extra_percentiles=extras,
    )


def error_curves(errors):
    """Ascending-sorted distance and angle sequences for rank plots."""
    arr = np.asarray(list(errors), dtype=np.float64).reshape(-1, 2)
    return np.sort(arr[:, 0], kind="stable"), np.sort(arr[:, 1], kind="stable")


def roc_percentages(dist: np.ndarray, thresholds) -> np.ndarray:
    """Cumulative accuracy curve from per-pixel distances (see
    :func:`coord_distances`), pooled over one or more frames: % of the
    pixels within each threshold."""
    if dist.size == 0:
        raise EmptyMetricsError("no overlapping valid pixels to evaluate")
    grid = np.asarray(thresholds, dtype=np.float64)
    # the count of d <= t is where t goes right of its equals in sorted order
    within = np.searchsorted(np.sort(dist), grid, side="right")
    within[np.isnan(grid)] = 0  # NaN sorts last, but no d <= NaN
    return 100.0 * within.astype(np.float64) / dist.size
