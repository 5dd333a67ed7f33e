"""Colored point clouds and the operations that reshape them.

A cloud stores geometry as an (n, 3) float64 array of meters and color as an
(n, 3) float64 array of unit-range RGB channels. Point order is meaningful:
indices are stable identifiers, and every operation that does not add or
remove points preserves them. All containers are frozen after construction,
so sharing clouds between threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidTransformError,
    NegativeSigmaError,
    NonFiniteValueError,
    NonPositiveLeafError,
)

ROTATION_TOLERANCE = 1e-9


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise NonFiniteValueError unless every value of the (n, k) array is finite."""
    finite = np.isfinite(values)
    if not finite.all():
        rows = np.nonzero(~finite.all(axis=1))[0]
        raise NonFiniteValueError(
            f"{what} of {len(rows)} point(s) hold NaN or infinity, first at point {rows[0]}"
        )


def _frozen_array(values, columns: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.size == 0:
        arr = arr.reshape(0, columns)
    if arr.ndim != 2 or arr.shape[1] != columns:
        raise ValueError(f"expected an (n, {columns}) array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ColoredPointCloud:
    """Ordered collection of colored points plus sampling-pitch metadata.

    Attributes:
        xyz: (n, 3) coordinates in meters.
        rgb: (n, 3) color channels in [0, 1]; all zeros when has_color is False.
        resolution: declared sampling pitch in meters, > 0.
        has_color: whether the color channels carry real data.
    """

    xyz: np.ndarray
    rgb: np.ndarray
    resolution: float = 0.01
    has_color: bool = True

    def __post_init__(self):
        object.__setattr__(self, "xyz", _frozen_array(self.xyz, 3))
        object.__setattr__(self, "rgb", _frozen_array(self.rgb, 3))
        if self.xyz.shape[0] != self.rgb.shape[0]:
            raise ValueError("xyz and rgb must have the same number of rows")
        if not (self.resolution > 0):
            raise ValueError(f"resolution must be > 0, got {self.resolution}")

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; construction validates the rotation.

    The rotation must be orthonormal with determinant +1 within 1e-9,
    otherwise InvalidTransformError is raised.
    """

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64, copy=True)
        trans = np.array(self.translation, dtype=np.float64, copy=True).reshape(3)
        if rot.shape != (3, 3):
            raise InvalidTransformError(f"rotation must be 3x3, got {rot.shape}")
        defect = np.abs(rot.T @ rot - np.eye(3)).max()
        if defect > ROTATION_TOLERANCE:
            raise InvalidTransformError(f"rotation not orthonormal (defect {defect:.3e})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > ROTATION_TOLERANCE:
            raise InvalidTransformError(f"rotation determinant {det!r} != 1")
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def remove_invalid(cloud: ColoredPointCloud) -> ColoredPointCloud:
    """Drop every point with a non-finite coordinate or color channel.

    Keeps the original order of the survivors. Idempotent; the result may
    be empty.
    """
    mask = np.isfinite(cloud.xyz).all(axis=1) & np.isfinite(cloud.rgb).all(axis=1)
    if mask.all():
        return cloud
    return ColoredPointCloud(
        cloud.xyz[mask], cloud.rgb[mask], cloud.resolution, cloud.has_color
    )


def voxel_downsample(cloud: ColoredPointCloud, leaf: float) -> ColoredPointCloud:
    """Collapse points into one averaged point per occupied voxel.

    Voxels are half-open cubes of edge `leaf`; a point belongs to the cell
    floor(coordinate / leaf) on each axis. The output carries the per-voxel
    arithmetic mean of all six fields, ordered by ascending (kx, ky, kz)
    voxel key, and its resolution is set to `leaf`.
    """
    if not (leaf > 0):
        raise NonPositiveLeafError(f"leaf must be > 0, got {leaf}")
    n = len(cloud)
    if n == 0:
        return ColoredPointCloud(cloud.xyz, cloud.rgb, leaf, cloud.has_color)
    keys = np.floor(cloud.xyz / leaf).astype(np.int64)
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = np.ravel(inverse)
    m = unique_keys.shape[0]
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    sums = np.zeros((m, 3))
    np.add.at(sums, inverse, cloud.xyz)
    color_sums = np.zeros((m, 3))
    np.add.at(color_sums, inverse, cloud.rgb)
    return ColoredPointCloud(
        sums / counts[:, None],
        color_sums / counts[:, None],
        leaf,
        cloud.has_color,
    )


def apply_rigid_transform(cloud: ColoredPointCloud, transform: RigidTransform) -> ColoredPointCloud:
    """Map geometry through R @ g + t; colors and point order are untouched."""
    if not isinstance(transform, RigidTransform):
        raise InvalidTransformError("transform must be a RigidTransform")
    return ColoredPointCloud(
        transform.apply(cloud.xyz), cloud.rgb, cloud.resolution, cloud.has_color
    )


def add_gaussian_noise(cloud: ColoredPointCloud, sigma: float, seed: int) -> ColoredPointCloud:
    """Perturb each coordinate with independent zero-mean Gaussian noise.

    Draws come from a PCG64 generator seeded per call, so a fixed seed gives
    a bit-identical result. Colors are never touched; sigma = 0 returns the
    cloud unchanged.
    """
    if sigma < 0:
        raise NegativeSigmaError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=cloud.xyz.shape)
    return ColoredPointCloud(
        cloud.xyz + noise, cloud.rgb, cloud.resolution, cloud.has_color
    )
