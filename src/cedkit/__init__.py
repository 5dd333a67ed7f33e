"""Keypoint detection toolkit for colored 3D point clouds.

Saliency is the distance from a point to the centroid of its fixed-radius
neighborhood, measured both in 3D space and in RGB space; keypoints are
selected with a multi-modal non-maximum suppression. The package also ships
PLY/PCD IO, synthetic scenes, and a repeatability/runtime evaluation harness.
"""

from .cloud import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
)
from .cloudio import CloudFormat, parse_cloud, sniff_format, write_cloud
from .detector import (
    DetectorMode,
    DetectorParams,
    KeypointSet,
    PreparedCloud,
    SaliencyField,
    detect,
    export_keypoints_csv,
    export_keypoints_ply,
    local_maxima,
    prepare,
    select,
)
from .evaluation import (
    AblationRow,
    RepeatabilityConfig,
    RepeatabilityReport,
    RuntimeStats,
    ablation_sweep,
    detect_random,
    evaluate_repeatability,
    measure_runtime,
    random_detector,
    sample_rigid_transform,
)
from .index import NeighborGraph, build_index
from .scenes import SceneKind, SceneSpec, generate_scene

__all__ = [
    "AblationRow",
    "CloudFormat",
    "ColoredPointCloud",
    "DetectorMode",
    "DetectorParams",
    "KeypointSet",
    "NeighborGraph",
    "PreparedCloud",
    "RepeatabilityConfig",
    "RepeatabilityReport",
    "RigidTransform",
    "RuntimeStats",
    "SaliencyField",
    "SceneKind",
    "SceneSpec",
    "ablation_sweep",
    "add_gaussian_noise",
    "apply_rigid_transform",
    "build_index",
    "detect",
    "detect_random",
    "evaluate_repeatability",
    "export_keypoints_csv",
    "export_keypoints_ply",
    "generate_scene",
    "local_maxima",
    "measure_runtime",
    "parse_cloud",
    "prepare",
    "random_detector",
    "sample_rigid_transform",
    "select",
    "sniff_format",
    "write_cloud",
]

__version__ = "0.1.0"
