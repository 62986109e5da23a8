"""Per-pixel scene-coordinate and panoptic-label images.

Label convention: class labels are void = 0, sky = 1, road = 2; building
instances are globally unique ids starting at 1000.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _check_dims

__all__ = [
    "SceneCoordinateImage",
    "LabelImage",
    "VOID_LABEL",
    "SKY_LABEL",
    "ROAD_LABEL",
    "FIRST_INSTANCE_LABEL",
    "NUM_CLASS_LABELS",
]

VOID_LABEL = 0
SKY_LABEL = 1
ROAD_LABEL = 2
FIRST_INSTANCE_LABEL = 1000
NUM_CLASS_LABELS = 3


@dataclass
class SceneCoordinateImage:
    """(H, W, 3) float64 world coordinates; NaN rows mark pixels without data."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"coords must be (H, W, 3), got {arr.shape}")
        _check_dims(arr.shape[1], arr.shape[0])
        self.coords = arr

    @property
    def height(self) -> int:
        return self.coords.shape[0]

    @property
    def width(self) -> int:
        return self.coords.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """(H, W) bool: pixels carrying a finite coordinate."""
        # per channel: all(axis=2) over an (H, W, 3) bool array is ~6x slower
        c = self.coords
        return np.isfinite(c[..., 0]) & np.isfinite(c[..., 1]) & np.isfinite(c[..., 2])


@dataclass
class LabelImage:
    """(H, W) uint32 panoptic labels (classes plus building instances)."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValueError(f"labels must be (H, W), got {arr.shape}")
        _check_dims(arr.shape[1], arr.shape[0])
        if np.any(arr < 0):
            raise ValueError("labels must be non-negative")
        self.labels = arr.astype(np.uint32, copy=False)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def instance_mask(self) -> np.ndarray:
        """(H, W) bool: pixels labelled with a building instance."""
        return self.labels >= FIRST_INSTANCE_LABEL
