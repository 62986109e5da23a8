"""Spherical-panorama relocalisation toolkit.

Pipeline: generate a synthetic cuboid city, ray-cast per-pixel scene
coordinates and panoptic labels, fit per-instance whitening transforms,
simulate predictor noise, estimate 6-DoF poses with Lambda Twist P3P
inside a deterministic RANSAC loop and bearing-vector EPnP refits, and
score everything with the distance/angle metrics used for localisation
benchmarks.
"""

from .geometry import Pose, bearing_to_pixel, image_bearings, pixel_to_bearing, relative_pose_errors
from .images import LabelImage, SceneCoordinateImage
from .instance_map import InstanceMap, WhiteningTransform, build_instance_map, fit_whitening, unwhiten, whiten
from .pnp import Correspondences, PoseEstimate, RansacConfig, angular_residuals, epnp_bearing, ransac_pnp
from .scene_sim import CityScene, Cuboid, NoiseModel, cuboid_approximation, generate_city, raycast_render

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "pixel_to_bearing",
    "bearing_to_pixel",
    "image_bearings",
    "relative_pose_errors",
    "SceneCoordinateImage",
    "LabelImage",
    "InstanceMap",
    "WhiteningTransform",
    "fit_whitening",
    "whiten",
    "unwhiten",
    "build_instance_map",
    "Correspondences",
    "RansacConfig",
    "PoseEstimate",
    "epnp_bearing",
    "angular_residuals",
    "ransac_pnp",
    "CityScene",
    "Cuboid",
    "NoiseModel",
    "generate_city",
    "raycast_render",
    "cuboid_approximation",
    "__version__",
]
