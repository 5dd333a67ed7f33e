"""Keypoint detection toolkit for colored 3D point clouds.

Saliency is the distance from a point to the centroid of its fixed-radius
neighborhood, measured both in 3D space and in RGB space; keypoints are
selected with a multi-modal non-maximum suppression. The package also ships
PLY/PCD IO, synthetic scenes, and a repeatability/runtime evaluation harness.
"""

from .baseline import detect_random
from .cloud import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
)
from .cloudio import CloudFormat, parse_cloud, sniff_format, write_cloud
from .detector import (
    DetectionResult,
    DetectorMode,
    DetectorParams,
    KeypointSet,
    PreparedCloud,
    SaliencyField,
    detect,
    detect_with_fields,
    export_keypoints_csv,
    export_keypoints_ply,
    local_maxima,
    multimodal_nms,
    prepare,
    select,
)
from .evaluation import (
    AblationRow,
    RepeatabilityConfig,
    RepeatabilityReport,
    RuntimeStats,
    ablation_sweep,
    ced_detector,
    evaluate_repeatability,
    measure_runtime,
    random_detector,
    sample_rigid_transform,
)
from .index import NeighborGraph, SpatialIndex, build_index
from .scenes import SceneKind, SceneSpec, generate_scene

__all__ = [
    "AblationRow",
    "CloudFormat",
    "ColoredPointCloud",
    "DetectionResult",
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
    "SpatialIndex",
    "ablation_sweep",
    "add_gaussian_noise",
    "apply_rigid_transform",
    "build_index",
    "ced_detector",
    "detect",
    "detect_random",
    "detect_with_fields",
    "evaluate_repeatability",
    "export_keypoints_csv",
    "export_keypoints_ply",
    "generate_scene",
    "local_maxima",
    "measure_runtime",
    "multimodal_nms",
    "parse_cloud",
    "prepare",
    "random_detector",
    "sample_rigid_transform",
    "select",
    "sniff_format",
    "write_cloud",
]

__version__ = "0.1.0"
