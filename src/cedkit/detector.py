"""Centroid-distance saliency and multi-modal non-maximum suppression.

Per point, saliency is the distance from the point to the centroid of its
strict-radius neighborhood: L2 in geometric space, L1 in RGB space. Both
centroids come from one neighborhood sum over the [xyz|rgb|1] columns; the
ones column sums to the neighborhood sizes. Both measures are
invariant to rigid motion because the neighborhood's shape (and its colors)
move with the query point. Keypoints are the points whose product of
saliencies is not strictly beaten by any neighbor and that pass a
per-modality threshold filter.

Fields carry no modality label: the geometric field comes first and, in CED
mode, the photometric one second (PreparedCloud names them). multimodal_nms
takes the mask that local_maxima computes from the neighbor graph.

Detection is select(prepare(cloud, params), params): prepare does everything
the thresholds do not affect (index, neighbor graph, saliency fields and the
local-maximum mask), select applies the thresholds. A threshold sweep thus
prepares each cloud once.

Points whose neighborhood is smaller than ``min_neighbors`` are marked
invalid: they are never selected and never suppress anyone.

The neighborhood sums are the sparse product (U v + U^T v) + v, where U has
a one at each of the graph's pairs (i < j) and v holds the point columns.
``coo_array @ ndarray`` computes U v with scipy's COO kernel
``coo_matmat_dense``, which adds x[col] to y[row] pair by pair, in pair
order; but a coo_array needs a float64 data array, 8 bytes per pair that only
mark positions. So the sums feed the kernel the graph's contiguous pair
columns block by block, with one reused block of ones, and accumulate U v
and U^T v in two arrays, which are then added in the public product's order:
every field has the coo_array product's bits, and no per-pair array is
allocated. The kernel is private to scipy, so it is used only after a check,
once per process, that it reproduces the public product bit for bit on a
small graph of two blocks; when it is missing or differs, the sums go
through coo_array.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.sparse import coo_array

from .cloud import ColoredPointCloud, frozen_copy, require_integer, require_real
from .cloudio import CloudFormat, format_rows, write_cloud
from .errors import InvalidParamsError, MisalignedFieldsError, NoColorError
from .index import _PAIR_BLOCK, NeighborGraph, build_index

logger = logging.getLogger(__name__)

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

    radius: neighborhood radius in meters, finite and > 0.
    geo_threshold: in [0, 1], compared against saliency / radius.
    color_threshold: in [0, 3], compared against the raw L1 color saliency.
    mode: CED (geometry and color) or CED_3D (geometry only).
    min_neighbors: least neighborhood size of a valid point, an integer >= 1.
    """

    radius: float
    geo_threshold: float = DEFAULT_GEO_THRESHOLD
    color_threshold: float = DEFAULT_COLOR_THRESHOLD
    mode: DetectorMode = DetectorMode.CED
    min_neighbors: int = DEFAULT_MIN_NEIGHBORS

    def __post_init__(self):
        require_real(self.radius, "radius")
        require_real(self.geo_threshold, "geometric threshold", 0, 1, "[]")
        require_real(self.color_threshold, "color threshold", 0, 3, "[]")
        if not isinstance(self.mode, DetectorMode):
            raise InvalidParamsError(f"mode must be a DetectorMode, got {self.mode!r}")
        require_integer(self.min_neighbors, "min_neighbors", 1)

    @classmethod
    def for_cloud(cls, cloud: ColoredPointCloud, **overrides) -> "DetectorParams":
        """Defaults tied to the cloud: radius = 5 x resolution."""
        overrides.setdefault("radius", DEFAULT_RADIUS_FACTOR * cloud.resolution)
        return cls(**overrides)


@dataclass(frozen=True)
class SaliencyField:
    """Per-point saliency values for one modality, index-aligned with the cloud."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        values = frozen_copy(self.values)
        valid = frozen_copy(self.valid, bool)
        if values.shape != valid.shape or values.ndim != 1:
            raise MisalignedFieldsError("values and valid must be equal-length vectors")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class KeypointSet:
    """Ascending, unique indices of selected points."""

    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", frozen_copy(self.indices, np.int64))

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class DetectionResult:
    keypoints: KeypointSet
    geometric: SaliencyField
    photometric: SaliencyField | None


def _sums_by_coo(first: np.ndarray, second: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(U v + U^T v) + v through scipy's public sparse product.

    U holds a one at each upper-triangular pair (first, second): every pair
    adds each end's values to the other's sum, and every point counts
    itself. The fallback when _pair_kernel finds no usable kernel, and the
    reference it is checked against.
    """
    n = values.shape[0]
    upper = coo_array((np.ones(first.shape[0]), (first, second)), shape=(n, n))
    # Summed in place, so that one (n, k) temporary fewer is live; the ones
    # (8 bytes per pair) are freed before the caller's offsets.
    sums = upper @ values
    sums += upper.T @ values
    del upper
    sums += values
    return sums


def _sums_by_blocks(
    kernel, first: np.ndarray, second: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """_sums_by_coo's sums, bit for bit, with no per-pair array.

    kernel(nnz, k, rows, cols, data, x, y) adds data[p] * x[cols[p]] to
    y[rows[p]] for p in order; the pairs go to it block by block (see the
    module docstring).
    """
    n, k = values.shape
    flat = values.ravel()
    ones = np.ones(_PAIR_BLOCK)
    sums = np.zeros((n, k))
    transposed = np.zeros((n, k))
    for start in range(0, first.shape[0], _PAIR_BLOCK):
        i = first[start:start + _PAIR_BLOCK]
        j = second[start:start + _PAIR_BLOCK]
        kernel(i.shape[0], k, i, j, ones, flat, sums)
        kernel(i.shape[0], k, j, i, ones, flat, transposed)
    sums += transposed
    del transposed
    sums += values
    return sums


@functools.cache
def _pair_kernel():
    """scipy's private COO kernel if it matches _sums_by_coo here, else None.

    Checked once per process on a small random graph of two blocks, with
    int32 and int64 columns: a scipy without the kernel, with another
    signature, or with another summation order falls back to coo_array.
    """
    try:
        from scipy.sparse._sparsetools import coo_matmat_dense as kernel
    except ImportError:
        return None
    rng = np.random.default_rng(0)
    values = rng.random((64, 7))
    pairs = np.sort(rng.integers(0, 64, size=(2, _PAIR_BLOCK + 1000)), axis=0)
    try:
        for dtype in (np.int32, np.int64):
            first, second = pairs.astype(dtype)
            got = _sums_by_blocks(kernel, first, second, values)
            if not np.array_equal(got, _sums_by_coo(first, second, values)):
                return None
    except (TypeError, ValueError):  # another signature or other argument types
        return None
    return kernel


def saliency_from_graph(
    cloud: ColoredPointCloud, graph: NeighborGraph, params: DetectorParams
) -> tuple[SaliencyField, SaliencyField | None]:
    """Saliency fields over a prebuilt neighbor graph.

    Invalid points (neighborhood smaller than min_neighbors) get value 0.
    The photometric field is produced only in CED mode, which needs a
    colored cloud (prepare checks that before it builds the graph).
    """
    n = graph.n_points
    ced = params.mode is DetectorMode.CED
    columns = [cloud.xyz, cloud.rgb] if ced else [cloud.xyz]
    values = np.hstack(columns + [np.ones((n, 1))])

    # Neighborhood sums of the [xyz|rgb|1] columns (see _sums_by_coo): the
    # last column, all ones, sums to the neighborhood size. The kernel
    # writes wherever the pairs point, so they are checked as coo_array did.
    first, second = graph.pairs.T
    if first.shape[0] and not (0 <= graph.pairs.min() and graph.pairs.max() < n):
        raise InvalidParamsError(f"neighbor graph pairs must index {n} points")
    kernel = _pair_kernel()
    if kernel is None:
        sums = _sums_by_coo(first, second, values)
    else:
        sums = _sums_by_blocks(kernel, first, second, values)
    counts = sums[:, -1]
    valid = counts >= params.min_neighbors
    offsets = values[:, :-1] - sums[:, :-1] / counts[:, None]

    # Squares added x, then y, then z: the oracle's order, bit for bit.
    geo_values = np.sqrt(offsets[:, 0] ** 2 + offsets[:, 1] ** 2 + offsets[:, 2] ** 2)
    geo = SaliencyField(np.where(valid, geo_values, 0.0), valid)
    if not ced:
        return geo, None
    color_values = np.abs(offsets[:, 3:]).sum(axis=1)
    return geo, SaliencyField(np.where(valid, color_values, 0.0), valid)


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
    first, second = neighborhoods.pairs.T
    for start in range(0, first.shape[0], _PAIR_BLOCK):
        # ufunc.at and the gathers take intp indices: widen each block once.
        i = first[start:start + _PAIR_BLOCK].astype(np.intp)
        j = second[start:start + _PAIR_BLOCK].astype(np.intp)
        np.maximum.at(neighborhood_max, i, masked[j])
        np.maximum.at(neighborhood_max, j, masked[i])
    return valid & ~(neighborhood_max > product)


def multimodal_nms(
    fields: Sequence[SaliencyField],
    thresholds: Sequence[float],
    local_max: np.ndarray,
) -> np.ndarray:
    """Select locally best points across one or more saliency modalities.

    Two steps: suppression keeps the local maxima of the product of modality
    values, which local_maxima(fields, graph) computes once as the mask
    local_max, then the filter keeps those for which at least one modality
    meets its threshold (values are compared with >=). Invalid points are
    never selected and never suppress others.

    Returns ascending indices of the selected points. Raises
    MisalignedFieldsError unless local_max holds one flag per point.
    """
    if len(thresholds) != len(fields):
        raise MisalignedFieldsError(
            f"{len(fields)} fields but {len(thresholds)} thresholds"
        )
    local_max = np.asarray(local_max, dtype=bool)
    if local_max.ndim != 1:
        raise MisalignedFieldsError(
            f"local_max must be a per-point mask, got shape {local_max.shape}"
        )
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
        object.__setattr__(self, "local_max", frozen_copy(self.local_max, bool))

    @property
    def fields(self) -> list[SaliencyField]:
        if self.photometric is None:
            return [self.geometric]
        return [self.geometric, self.photometric]


def prepare(
    cloud: ColoredPointCloud, params: DetectorParams, core: np.ndarray | None = None
) -> PreparedCloud:
    """Everything detection computes before the thresholds apply.

    Builds the index, the neighbor graph and the saliency fields, then the
    local-maximum mask; geo_threshold and color_threshold are not read.
    Raises NoColorError for CED mode on a colorless cloud before any work.

    core, a per-point mask (None for every point), restricts the graph to
    the pairs with an end in it (SpatialIndex.neighbor_graph). A core
    point's neighborhood, and so its validity and saliencies, stays whole;
    a point outside it gets partial sums, like a point at the edge of a
    cropped cloud, and is never selected. So the decision on a point is the
    one made without a core when the point and all its neighbors lie in the
    core; the decisions on other core points should not be read.
    """
    if params.mode is DetectorMode.CED and not cloud.has_color:
        raise NoColorError("CED mode needs a colored cloud; use CED_3D instead")
    graph = build_index(cloud).neighbor_graph(params.radius, core)
    geo, photo = saliency_from_graph(cloud, graph, params)
    if photo is not None and photo.valid.any() and not photo.values[photo.valid].any():
        logger.warning(
            "all color saliencies are zero; every filtered-in point ties at "
            "product 0. CED_3D mode is probably what you want for this cloud."
        )
    fields = [geo] if photo is None else [geo, photo]
    local_max = local_maxima(fields, graph)
    if core is not None:
        local_max &= np.asarray(core, dtype=bool)
    return PreparedCloud(params, geo, photo, local_max)


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
    return KeypointSet(indices)


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
    idx = keypoints.indices
    absent = np.zeros(len(idx))
    columns = [
        idx,
        *cloud.xyz[idx].T,
        *cloud.rgb[idx].T,
        geometric.values[idx] if geometric is not None else absent,
        photometric.values[idx] if photometric is not None else absent,
    ]
    line = "%d," + ",".join(["%.9g"] * 8) + "\n"
    return "index,x,y,z,r,g,b,d_g,d_c\n" + format_rows(columns, line)


def export_keypoints_ply(cloud: ColoredPointCloud, keypoints: KeypointSet) -> bytes:
    """The selected points as a standalone ASCII PLY file."""
    subset = ColoredPointCloud(
        cloud.xyz[keypoints.indices],
        cloud.rgb[keypoints.indices],
        cloud.resolution,
        cloud.has_color,
    )
    return write_cloud(subset, CloudFormat.PLY_ASCII)
