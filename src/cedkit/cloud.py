"""Colored point clouds and the operations that move them.

A cloud stores geometry as an (n, 3) float64 array of meters and color as an
(n, 3) float64 array of unit-range RGB channels. Point order is meaningful:
indices are stable identifiers, and every operation here (rigid motion,
noise) preserves them. All containers are frozen after construction,
so sharing clouds between threads is safe.

Invariant: every coordinate and color of a cloud is finite. It is checked
once, when the cloud is built (NonFiniteValueError otherwise), so parsers,
the index and the detector can rely on it without checking again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, InvalidTransformError, NonFiniteValueError

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
        raise InvalidParamsError(f"expected an (n, {columns}) array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ColoredPointCloud:
    """Ordered collection of colored points plus sampling-pitch metadata.

    Attributes:
        xyz: (n, 3) finite coordinates in meters.
        rgb: (n, 3) finite color channels in [0, 1]; all zeros when has_color is False.
        resolution: declared sampling pitch in meters, finite and > 0.
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
            raise InvalidParamsError("xyz and rgb must have the same number of rows")
        require_finite(self.xyz, "coordinates")
        require_finite(self.rgb, "colors")
        if not (0 < self.resolution < np.inf):
            raise InvalidParamsError(f"resolution must be finite and > 0, got {self.resolution}")

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
    if not (0 <= sigma < np.inf):
        raise InvalidParamsError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=cloud.xyz.shape)
    return ColoredPointCloud(
        cloud.xyz + noise, cloud.rgb, cloud.resolution, cloud.has_color
    )
