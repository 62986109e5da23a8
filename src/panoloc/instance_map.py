"""Per-instance PCA whitening transforms between world and local coordinates.

Each building instance gets an affine map: local coordinates C relate to
world coordinates S through S = W @ C + M, where M is the instance mean and
W the unwhitening matrix from the eigendecomposition of the instance point
covariance. Whitening a fitted instance's own points yields zero mean and
identity covariance (up to the eigenvalue floor used for degenerate,
near-planar instances).

Every instance is fitted at once, from arrays that hold all the points
sorted by label. Each mean and covariance entry is the correctly rounded sum
of its terms over the point count, so it has the bits of ``math.fsum``,
which rounds correctly too, in any point order. The sums are exact by
error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
summation part I", SIAM J. Sci. Comput. 2008): for a run of n terms r
below 2^e in magnitude, sigma = 2^(ceil(log2(n + 2)) + e) splits each term
exactly into q = (sigma + r) - sigma and r - q. Every q is a multiple of
2^-53 sigma and their partial sums stay below sigma, so ``np.add.reduceat``
adds them exactly in any order. The remainders are at most 2^-53 sigma, so
1-3 passes leave nothing on rendered frames, and ``math.fsum`` of a run's
few exact pass sums rounds once. A run whose sigma would pass the largest
double raises OverflowError, as does every sum ``math.fsum`` cannot finish.
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


def _segment_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(G,) sums of the G runs of ``counts`` entries of the (N,) ``terms``, with
    the bits of ``math.fsum`` over each run; ``terms`` is overwritten. Raises
    OverflowError where a sum may overflow or a term is not finite."""
    starts = np.cumsum(counts) - counts
    headroom = np.frexp(counts + 1.0)[1]  # ceil(log2(n + 2))
    parts = []
    while True:
        top = np.maximum.reduceat(np.abs(terms), starts)
        frac, exp = np.frexp(top)
        exp += headroom - (frac == 0.5)  # frexp overshoots ceil(log2 top) on powers of 2
        if not (np.isfinite(top).all() and exp.max(initial=0) < 1024):
            raise OverflowError("instance sums are not finite or may overflow")
        sigma = np.repeat(np.ldexp(1.0, exp), counts)
        high = terms + sigma
        high -= sigma
        terms -= high
        parts.append(np.add.reduceat(high, starts))
        if not terms.any():
            break
    return np.array(list(map(math.fsum, np.stack(parts).T.tolist())))


def _moments(columns: np.ndarray, counts: np.ndarray) -> tuple:
    """Means (3, G) and covariances (G, 3, 3) of the G instances whose points
    fill the (3, N) ``columns`` in runs of ``counts``; the columns are overwritten."""
    n = counts.astype(np.float64)
    # one row at a time keeps the working arrays small
    mean = np.array([_segment_sums(columns[j].copy(), counts) for j in range(3)]) / n
    for j in range(3):
        columns[j] -= np.repeat(mean[j], counts)
    cov = np.array([_segment_sums(columns[j] * columns[k], counts)
                    for j in range(3) for k in range(j, 3)]) / n
    return mean, cov[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]].transpose(2, 0, 1)


def _unwhitening(cov: np.ndarray) -> np.ndarray:
    """(G, 3, 3) unwhitening matrices of (G, 3, 3) covariances.

    The eigenbasis is ordered by descending eigenvalue; each eigenvector's
    largest-magnitude entry is made positive and the basis determinant is
    forced to +1 by flipping the last column, so refits are reproducible.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[:, ::-1], eigvecs[:, :, ::-1]  # eigh sorts ascending
    peak = np.take_along_axis(eigvecs, np.abs(eigvecs).argmax(axis=1)[:, None], axis=1)
    eigvecs = eigvecs * np.where(peak < 0.0, -1.0, 1.0)
    eigvecs[np.linalg.det(eigvecs) < 0.0, :, 2] *= -1.0
    scales = np.sqrt(np.maximum(eigvals, 0.0) + EIGENVALUE_FLOOR)
    return eigvecs * scales[:, None, :]  # U @ diag(scales)


def fit_whitening(points: np.ndarray, label: int) -> WhiteningTransform:
    """The whitening transform of one instance's world points, as build_instance_map fits it."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] < MIN_INSTANCE_POINTS:
        raise DegenerateInstanceError(
            f"instance {label}: need at least {MIN_INSTANCE_POINTS} points, got {pts.shape[0]}")
    mean, cov = _moments(pts.T.copy(), np.array([pts.shape[0]]))
    return WhiteningTransform(int(label), mean[:, 0], _unwhitening(cov)[0], pts.shape[0])


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

    # sort the instance points by label and cut where the label changes
    # (np.unique would import numpy.ma, 15 ms of a cold start)
    order = np.flatnonzero(labs >= FIRST_INSTANCE_LABEL)
    order = order[np.argsort(labs[order], kind="stable")]
    ordered = labs[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    counts = np.diff(cuts, prepend=0, append=order.size) if order.size else cuts
    run_labels = ordered[np.cumsum(counts) - counts]
    fitted = counts >= MIN_INSTANCE_POINTS
    skipped = dict(zip(run_labels[~fitted].tolist(), counts[~fitted].tolist()))
    kept = counts[fitted]
    means, covs = _moments(pts.T.take(order[np.repeat(fitted, counts)], axis=1), kept)
    transforms = {label: WhiteningTransform(label, mean, w, n) for label, mean, w, n in zip(
        run_labels[fitted].tolist(), means.T, _unwhitening(covs), kept.tolist())}
    return InstanceMap(transforms, NUM_CLASS_LABELS + len(transforms), skipped)
