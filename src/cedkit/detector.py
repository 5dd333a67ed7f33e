"""Centroid-distance saliency and multi-modal non-maximum suppression.

Per point, saliency is the distance from the point to the centroid of its
strict-radius neighborhood: L2 in geometric space, L1 in RGB space. Both
centroids come from one neighborhood sum over the [xyz|rgb] columns, taken
as a sparse product over the neighbor graph's pairs. Both measures are
invariant to rigid motion because the neighborhood's shape (and its colors)
move with the query point. Keypoints are the points whose product of
saliencies is not strictly beaten by any neighbor and that pass a
per-modality threshold filter.

Detection is select(prepare(cloud, params), params): prepare does everything
the thresholds do not affect (index, neighbor graph, saliency fields and the
local-maximum mask), select applies the thresholds. A threshold sweep thus
prepares each cloud once.

Points whose neighborhood is smaller than ``min_neighbors`` are marked
invalid: they are never selected and never suppress anyone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.sparse import coo_array

from .cloud import ColoredPointCloud, require_finite
from .cloudio import CloudFormat, write_cloud
from .errors import (
    EmptyNeighborhoodError,
    InvalidParamsError,
    MisalignedFieldsError,
    NoColorError,
)
from .index import NeighborGraph, build_index

logger = logging.getLogger(__name__)

GEOMETRIC = "geometric"
PHOTOMETRIC = "photometric"

DEFAULT_RADIUS_FACTOR = 5.0
DEFAULT_GEO_THRESHOLD = 0.2
DEFAULT_COLOR_THRESHOLD = 0.1
DEFAULT_MIN_NEIGHBORS = 5


class DetectorMode(Enum):
    CED = "ced"
    CED_3D = "ced3d"


@dataclass(frozen=True)
class DetectorParams:
    """Detection parameters.

    radius: neighborhood radius in meters, > 0.
    geo_threshold: in [0, 1], compared against saliency / radius.
    color_threshold: in [0, 3], compared against the raw L1 color saliency.
    mode: CED (geometry and color) or CED_3D (geometry only).
    min_neighbors: minimum neighborhood size for a point to be valid.
    """

    radius: float
    geo_threshold: float = DEFAULT_GEO_THRESHOLD
    color_threshold: float = DEFAULT_COLOR_THRESHOLD
    mode: DetectorMode = DetectorMode.CED
    min_neighbors: int = DEFAULT_MIN_NEIGHBORS

    def __post_init__(self):
        if not (self.radius > 0):
            raise InvalidParamsError(f"radius must be > 0, got {self.radius}")
        if not 0.0 <= self.geo_threshold <= 1.0:
            raise InvalidParamsError(
                f"geometric threshold must be in [0, 1], got {self.geo_threshold}"
            )
        if not 0.0 <= self.color_threshold <= 3.0:
            raise InvalidParamsError(
                f"color threshold must be in [0, 3], got {self.color_threshold}"
            )
        if not isinstance(self.mode, DetectorMode):
            raise InvalidParamsError(f"mode must be a DetectorMode, got {self.mode!r}")
        if self.min_neighbors < 1:
            raise InvalidParamsError(
                f"min_neighbors must be >= 1, got {self.min_neighbors}"
            )

    @classmethod
    def for_cloud(cls, cloud: ColoredPointCloud, **overrides) -> "DetectorParams":
        """Defaults tied to the cloud: radius = 5 x resolution, CED mode."""
        overrides.setdefault("radius", DEFAULT_RADIUS_FACTOR * cloud.resolution)
        if "mode" not in overrides and not cloud.has_color:
            overrides["mode"] = DetectorMode.CED_3D
        return cls(**overrides)


@dataclass(frozen=True)
class SaliencyField:
    """Per-point saliency values for one modality, index-aligned with the cloud."""

    values: np.ndarray
    modality: str
    valid: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if values.shape != valid.shape or values.ndim != 1:
            raise MisalignedFieldsError("values and valid must be equal-length vectors")
        values.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class KeypointSet:
    """Ascending, unique indices of selected points plus the parameters used.

    params is None for detectors that take no DetectorParams (e.g. random).
    """

    indices: np.ndarray
    params: DetectorParams | None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class DetectionResult:
    keypoints: KeypointSet
    geometric: SaliencyField
    photometric: SaliencyField | None


def geometric_centroid(cloud: ColoredPointCloud, neighbor_indices) -> np.ndarray:
    """Per-axis mean of the geometric components of the listed points."""
    idx = np.asarray(neighbor_indices, dtype=np.int64)
    if idx.size == 0:
        raise EmptyNeighborhoodError("geometric centroid of an empty neighborhood")
    return cloud.xyz[idx].mean(axis=0)


def photometric_centroid(cloud: ColoredPointCloud, neighbor_indices) -> np.ndarray:
    """Per-channel mean of the color components of the listed points."""
    if not cloud.has_color:
        raise NoColorError("cloud carries no color")
    idx = np.asarray(neighbor_indices, dtype=np.int64)
    if idx.size == 0:
        raise EmptyNeighborhoodError("photometric centroid of an empty neighborhood")
    return cloud.rgb[idx].mean(axis=0)


def saliency_from_graph(
    cloud: ColoredPointCloud, graph: NeighborGraph, params: DetectorParams
) -> tuple[SaliencyField, SaliencyField | None]:
    """Saliency fields over a prebuilt neighbor graph.

    Invalid points (neighborhood smaller than min_neighbors) get value 0.
    The photometric field is produced only in CED mode, which rejects
    colorless clouds and NaN or infinite colors.
    """
    counts = graph.counts()
    valid = counts >= params.min_neighbors

    ced = params.mode is DetectorMode.CED
    if ced:
        if not cloud.has_color:
            raise NoColorError("CED mode needs a colored cloud; use CED_3D instead")
        require_finite(cloud.rgb, "colors")
        values = np.hstack([cloud.xyz, cloud.rgb])
    else:
        values = cloud.xyz

    # Neighborhood sums over the upper-triangular pairs U: every pair adds
    # each end's values to the other's sum, and every point counts itself.
    n = graph.n_points
    upper = coo_array(
        (np.ones(graph.pairs.shape[0]), (graph.pairs[:, 0], graph.pairs[:, 1])),
        shape=(n, n),
    )
    sums = upper @ values + upper.T @ values + values
    offsets = values - sums / counts[:, None]

    geo_values = np.sqrt(np.einsum("ij,ij->i", offsets[:, :3], offsets[:, :3]))
    geo = SaliencyField(np.where(valid, geo_values, 0.0), GEOMETRIC, valid)
    if not ced:
        return geo, None
    color_values = np.abs(offsets[:, 3:]).sum(axis=1)
    return geo, SaliencyField(np.where(valid, color_values, 0.0), PHOTOMETRIC, valid)


def _check_fields(fields: Sequence[SaliencyField], n: int) -> None:
    if len(fields) == 0:
        raise MisalignedFieldsError("need at least one saliency field")
    for field in fields:
        if len(field) != n:
            raise MisalignedFieldsError(
                f"field of length {len(field)} does not match {n} points"
            )


def local_maxima(
    fields: Sequence[SaliencyField], neighborhoods: NeighborGraph
) -> np.ndarray:
    """Mask of the points that suppression keeps, whatever the thresholds.

    A point is kept when it is valid in every field and no valid neighbor has
    a strictly greater product of field values. Equal products do not
    suppress each other, so a point never suppresses itself.
    """
    n = neighborhoods.n_points
    _check_fields(fields, n)

    valid = fields[0].valid.copy()
    for field in fields[1:]:
        valid &= field.valid

    product = fields[0].values.copy()
    for field in fields[1:]:
        product *= field.values

    # Max neighbor product, with invalid points masked out so they can never
    # beat anyone. Values are non-negative, so -1 is inert.
    masked = np.where(valid, product, -1.0)
    neighborhood_max = masked.copy()
    first, second = neighborhoods.pairs[:, 0], neighborhoods.pairs[:, 1]
    np.maximum.at(neighborhood_max, first, masked[second])
    np.maximum.at(neighborhood_max, second, masked[first])
    return valid & ~(neighborhood_max > product)


def multimodal_nms(
    fields: Sequence[SaliencyField],
    thresholds: Sequence[float],
    neighborhoods: NeighborGraph | np.ndarray,
) -> np.ndarray:
    """Select locally best points across one or more saliency modalities.

    Two steps: suppression keeps the local maxima of the product of modality
    values (see local_maxima), then the filter keeps those for which at least
    one modality meets its threshold (values are compared with >=). Invalid
    points are never selected and never suppress others.

    neighborhoods is the neighbor graph, or the mask that local_maxima has
    already computed from it for these fields; the mask lets a caller that
    varies only the thresholds suppress once.

    Returns ascending indices of the selected points.
    """
    if len(thresholds) != len(fields):
        raise MisalignedFieldsError(
            f"{len(fields)} fields but {len(thresholds)} thresholds"
        )
    if isinstance(neighborhoods, NeighborGraph):
        neighborhoods = local_maxima(fields, neighborhoods)
    local_max = np.asarray(neighborhoods, dtype=bool)
    _check_fields(fields, local_max.shape[0])

    passes_filter = np.zeros(local_max.shape[0], dtype=bool)
    for field, threshold in zip(fields, thresholds):
        passes_filter |= field.values >= threshold
    return np.nonzero(local_max & passes_filter)[0].astype(np.int64)


@dataclass(frozen=True)
class PreparedCloud:
    """The threshold-free part of detection on one cloud; see prepare.

    Holds per-point arrays only. The neighbor graph is not kept: selection
    needs nothing from it beyond the local-maximum mask.

    params: the parameters the cloud was prepared with.
    local_max: points that suppression keeps (see local_maxima).
    """

    params: DetectorParams
    geometric: SaliencyField
    photometric: SaliencyField | None
    local_max: np.ndarray

    def __post_init__(self):
        local_max = np.asarray(self.local_max, dtype=bool)
        local_max.setflags(write=False)
        object.__setattr__(self, "local_max", local_max)

    @property
    def fields(self) -> list[SaliencyField]:
        if self.photometric is None:
            return [self.geometric]
        return [self.geometric, self.photometric]


def prepare(cloud: ColoredPointCloud, params: DetectorParams) -> PreparedCloud:
    """Everything detection computes before the thresholds apply.

    Builds the index, the neighbor graph and the saliency fields, then the
    local-maximum mask; geo_threshold and color_threshold are not read.
    """
    if params.mode is DetectorMode.CED and not cloud.has_color:
        raise NoColorError("CED mode needs a colored cloud; use CED_3D instead")
    graph = build_index(cloud).neighbor_graph(params.radius)
    geo, photo = saliency_from_graph(cloud, graph, params)
    if photo is not None and photo.valid.any() and not photo.values[photo.valid].any():
        logger.warning(
            "all color saliencies are zero; every filtered-in point ties at "
            "product 0. CED_3D mode is probably what you want for this cloud."
        )
    fields = [geo] if photo is None else [geo, photo]
    return PreparedCloud(params, geo, photo, local_maxima(fields, graph))


def select(prepared: PreparedCloud, params: DetectorParams) -> KeypointSet:
    """Keypoints of a prepared cloud under the thresholds of params.

    params may differ from the prepared ones in geo_threshold and
    color_threshold only.
    """
    base = prepared.params
    if replace(params, geo_threshold=base.geo_threshold,
               color_threshold=base.color_threshold) != base:
        raise InvalidParamsError(
            f"cloud was prepared with {base}; select can change only the thresholds"
        )
    thresholds = [params.geo_threshold * params.radius]
    if params.mode is DetectorMode.CED:
        thresholds.append(params.color_threshold)
    indices = multimodal_nms(prepared.fields, thresholds, prepared.local_max)
    return KeypointSet(indices, params)


def detect_with_fields(cloud: ColoredPointCloud, params: DetectorParams) -> DetectionResult:
    """Full detection pipeline returning the keypoints and both fields."""
    prepared = prepare(cloud, params)
    return DetectionResult(
        select(prepared, params), prepared.geometric, prepared.photometric
    )


def detect(cloud: ColoredPointCloud, params: DetectorParams) -> KeypointSet:
    """Detect keypoints: select(prepare(cloud, params), params)."""
    return select(prepare(cloud, params), params)


def export_keypoints_csv(
    cloud: ColoredPointCloud,
    keypoints: KeypointSet,
    geometric: SaliencyField | None = None,
    photometric: SaliencyField | None = None,
) -> str:
    """Keypoints as CSV text: index,x,y,z,r,g,b,d_g,d_c with LF line endings.

    Saliency columns are written as 0 when the corresponding field is absent.
    """
    rows = ["index,x,y,z,r,g,b,d_g,d_c"]
    for i in keypoints.indices:
        x, y, z = cloud.xyz[i]
        r, g, b = cloud.rgb[i]
        dg = geometric.values[i] if geometric is not None else 0.0
        dc = photometric.values[i] if photometric is not None else 0.0
        rows.append(
            f"{i},{x:.9g},{y:.9g},{z:.9g},{r:.9g},{g:.9g},{b:.9g},{dg:.9g},{dc:.9g}"
        )
    return "\n".join(rows) + "\n"


def export_keypoints_ply(
    cloud: ColoredPointCloud,
    keypoints: KeypointSet,
    fmt: CloudFormat = CloudFormat.PLY_ASCII,
) -> bytes:
    """The selected points as a standalone point-cloud file."""
    subset = ColoredPointCloud(
        cloud.xyz[keypoints.indices],
        cloud.rgb[keypoints.indices],
        cloud.resolution,
        cloud.has_color,
    )
    return write_cloud(subset, fmt)
