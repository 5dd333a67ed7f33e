"""Colored point clouds and the operations that move them.

A cloud stores geometry as an (n, 3) float64 array of meters and color as an
(n, 3) float64 array of unit-range RGB channels. Point order is meaningful:
indices are stable identifiers, and every operation here (rigid motion,
noise) preserves them. All containers are frozen after construction,
so sharing clouds between threads is safe.

Invariant: every coordinate and color of a cloud is finite, and every color
channel lies in [0, 1]. It is checked once, when the cloud is built
(NonFiniteValueError or InvalidParamsError otherwise), so parsers, writers,
the index and the detector can rely on it without checking again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


def require_integer(value, name: str, least: int = 0) -> None:
    """Raise InvalidParamsError unless value is an int or numpy integer >= least, not a bool."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise InvalidParamsError(f"{name} must be {kind}, got {value!r}")


def require_real(value, name: str, low=0, high=np.inf, ends: str = "()") -> None:
    """Raise InvalidParamsError unless value is a real number from low to high.

    ends holds the interval's brackets: "(" or ")" for an open end, "[" or "]"
    for a closed one. An interval open up to inf asks for a finite value; a
    value that does not compare with numbers (a string, None) is rejected, and
    so is a bool, which compares as 0 or 1 but is not a number.
    """
    try:
        inside = (low < value if ends[0] == "(" else low <= value) and (
            value < high if ends[1] == ")" else value <= high)
    except TypeError:
        inside = False
    if not inside or isinstance(value, (bool, np.bool_)):
        rule = (f"finite and {'>' if ends[0] == '(' else '>='} {low}" if high == np.inf
                else f"in {ends[0]}{low}, {high}{ends[1]}")
        raise InvalidParamsError(f"{name} must be {rule}, got {value!r}")


def frozen_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only, C-ordered copy of values as dtype; the caller's array stays writeable."""
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.setflags(write=False)
    return arr


def _point_columns(values) -> np.ndarray:
    arr = frozen_copy(values)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidParamsError(f"expected an (n, 3) array, got shape {arr.shape}")
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
        object.__setattr__(self, "xyz", _point_columns(self.xyz))
        object.__setattr__(self, "rgb", _point_columns(self.rgb))
        if self.xyz.shape[0] != self.rgb.shape[0]:
            raise InvalidParamsError("xyz and rgb must have the same number of rows")
        require_finite(self.xyz, "coordinates")
        # min and max are NaN when any channel is, so colors within [0, 1]
        # are finite too; the finite check runs only to name a failure
        if self.rgb.size and not (self.rgb.min() >= 0 and self.rgb.max() <= 1):
            require_finite(self.rgb, "colors")
            raise InvalidParamsError(
                f"colors must lie in [0, 1], got [{self.rgb.min():g}, {self.rgb.max():g}]"
            )
        require_real(self.resolution, "resolution")

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; construction validates the rotation.

    The rotation must be a finite 3x3 array, orthonormal with determinant +1
    within 1e-9, and the translation three finite numbers; otherwise
    InvalidTransformError is raised.
    """

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        try:
            rot, trans = frozen_copy(self.rotation), frozen_copy(self.translation)
        except (TypeError, ValueError) as exc:
            raise InvalidTransformError(f"rotation and translation must be numeric: {exc}") from exc
        if rot.shape != (3, 3) or trans.size != 3:
            raise InvalidTransformError(
                f"need a 3x3 rotation and 3 translation values, got {rot.shape} and {trans.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
            raise InvalidTransformError("rotation and translation must be finite")
        trans = trans.reshape(3)
        defect = np.abs(rot.T @ rot - np.eye(3)).max()
        if defect > ROTATION_TOLERANCE:
            raise InvalidTransformError(f"rotation not orthonormal (defect {defect:.3e})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > ROTATION_TOLERANCE:
            raise InvalidTransformError(f"rotation determinant {det!r} != 1")
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
    return replace(cloud, xyz=transform.apply(cloud.xyz))


def add_gaussian_noise(cloud: ColoredPointCloud, sigma: float, seed: int) -> ColoredPointCloud:
    """Perturb each coordinate with independent zero-mean Gaussian noise.

    Draws come from a PCG64 generator seeded per call, so a fixed seed gives
    a bit-identical result. Colors are never touched; sigma = 0 returns the
    cloud unchanged. The seed is a non-negative integer (InvalidParamsError
    otherwise).
    """
    require_integer(seed, "seed")
    require_real(sigma, "sigma", ends="[)")
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=cloud.xyz.shape)
    return replace(cloud, xyz=cloud.xyz + noise)
