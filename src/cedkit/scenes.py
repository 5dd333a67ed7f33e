"""Deterministic synthetic scenes for evaluation at desk scale.

Four kinds are available:

- ``plane``: a regular (extent/pitch + 1)^2 grid at z = 0, uniform color.
- ``box_corner``: three mutually orthogonal quarter-planes meeting at the
  origin, which is sampled exactly once. Uniform color.
- ``checker_floor``: the plane with two alternating tile colors; tile edges
  fall on multiples of the tile size (snapped to a whole number of pitches).
- ``room_composite``: a closed axis-aligned box seen from inside, combining
  a checkered floor, four walls, and a ceiling with distinct colors. Every
  shared edge is sampled exactly once.

A non-zero ``jitter`` displaces every point by a seeded uniform offset of at
most jitter x pitch per axis. Sub-pitch jitter leaves the declared resolution
meaningful while breaking the exact symmetries of the lattice, which makes
saliency maxima unique and keeps neighborhoods away from the radius boundary;
evaluation on regular lattices would otherwise ride on floating-point ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cloud import ColoredPointCloud
from .errors import InvalidParamsError

Color = tuple[float, float, float]

# Largest scene generate_scene builds (16.8M points, about 0.8 GB of float64
# coordinates and colors); SceneSpec rejects a larger one before allocating.
MAX_SCENE_POINTS = 1 << 24


class SceneKind(Enum):
    PLANE = "plane"
    BOX_CORNER = "box-corner"
    CHECKER_FLOOR = "checker-floor"
    ROOM_COMPOSITE = "room"


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a generated scene; the cloud resolution equals pitch.

    Requires 0 < pitch <= extent < inf, 0 < tile < inf, finite extent / pitch
    and tile / pitch, 0 <= jitter < 0.5, colors of three channels in [0, 1]
    and at most MAX_SCENE_POINTS points; InvalidParamsError otherwise.
    """

    kind: SceneKind
    extent: float = 1.0
    pitch: float = 0.01
    tile: float = 0.2
    base_color: Color = (0.8, 0.2, 0.2)
    alt_color: Color = (0.2, 0.8, 0.2)
    wall_color: Color = (0.5, 0.5, 0.5)
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, SceneKind):
            raise InvalidParamsError(f"kind must be a SceneKind, got {self.kind!r}")
        if not (0 < self.pitch <= self.extent < np.inf):
            raise InvalidParamsError(
                f"need 0 < pitch <= extent < inf, got pitch {self.pitch}, extent {self.extent}"
            )
        if not (0 < self.tile < np.inf):
            raise InvalidParamsError(f"tile must be finite and > 0, got {self.tile}")
        for name in ("extent", "tile"):
            if not np.isfinite(getattr(self, name) / self.pitch):
                raise InvalidParamsError(
                    f"{name} / pitch must be finite, got {getattr(self, name)} / {self.pitch}"
                )
        if not 0.0 <= self.jitter < 0.5:
            raise InvalidParamsError(f"jitter must be in [0, 0.5), got {self.jitter}")
        for name in ("base_color", "alt_color", "wall_color"):
            color = getattr(self, name)
            if len(color) != 3 or not all(0.0 <= c <= 1.0 for c in color):
                raise InvalidParamsError(f"{name} must be three channels in [0, 1]")
        count = self.n_points
        if count > MAX_SCENE_POINTS:
            raise InvalidParamsError(
                f"scene would have {count} points, more than {MAX_SCENE_POINTS}; "
                "raise pitch or lower extent"
            )

    @property
    def n_points(self) -> int:
        """Number of points generate_scene returns, counted without allocating."""
        n = _cells(self)
        side = n + 1
        if self.kind in (SceneKind.PLANE, SceneKind.CHECKER_FLOOR):
            return side * side
        if self.kind is SceneKind.BOX_CORNER:
            return side * side + side * n + n * n
        # room: floor and ceiling, then four walls without their shared edges
        inner_height = min(_room_layers(self), n) - 1
        return 2 * side * side + 2 * side * inner_height + 2 * (n - 1) * inner_height


def _cells(spec: SceneSpec) -> int:
    """Pitches along each horizontal side of the scene."""
    return int(round(spec.extent / spec.pitch))


def _room_layers(spec: SceneSpec) -> int:
    """Pitches from a room's floor to its ceiling."""
    return max(2, int(round(0.4 * spec.extent / spec.pitch)))


def _grid(i_range, j_range):
    ii, jj = np.meshgrid(i_range, j_range, indexing="ij")
    return ii.ravel(), jj.ravel()


def _checker_colors(ix, iy, tiles_per, base, alt):
    parity = (ix // tiles_per + iy // tiles_per) % 2
    colors = np.where(parity[:, None] == 0, base, alt)
    return colors


def generate_scene(spec: SceneSpec) -> ColoredPointCloud:
    """Deterministic cloud for the spec; identical spec, identical cloud."""
    p = spec.pitch
    n = _cells(spec)
    side = np.arange(n + 1)
    base = np.asarray(spec.base_color, dtype=np.float64)
    alt = np.asarray(spec.alt_color, dtype=np.float64)
    wall = np.asarray(spec.wall_color, dtype=np.float64)
    tiles_per = max(1, int(round(spec.tile / p)))

    if spec.kind is SceneKind.PLANE:
        ix, iy = _grid(side, side)
        xyz = np.column_stack([ix * p, iy * p, np.zeros(ix.size)])
        rgb = np.tile(base, (ix.size, 1))

    elif spec.kind is SceneKind.CHECKER_FLOOR:
        ix, iy = _grid(side, side)
        xyz = np.column_stack([ix * p, iy * p, np.zeros(ix.size)])
        rgb = _checker_colors(ix, iy, tiles_per, base, alt)

    elif spec.kind is SceneKind.BOX_CORNER:
        faces = []
        ix, iy = _grid(side, side)  # z = 0 face keeps both axis lines
        faces.append(np.column_stack([ix * p, iy * p, np.zeros(ix.size)]))
        ix, iz = _grid(side, side[1:])  # y = 0 face without the z = 0 line
        faces.append(np.column_stack([ix * p, np.zeros(ix.size), iz * p]))
        iy, iz = _grid(side[1:], side[1:])  # x = 0 face without both lines
        faces.append(np.column_stack([np.zeros(iy.size), iy * p, iz * p]))
        xyz = np.vstack(faces)
        rgb = np.tile(base, (xyz.shape[0], 1))

    elif spec.kind is SceneKind.ROOM_COMPOSITE:
        n_z = _room_layers(spec)
        height = side[: n_z + 1]
        inner = side[1:-1]
        inner_height = height[1:-1]
        parts = []

        ix, iy = _grid(side, side)  # floor with checker tiles
        parts.append(
            (
                np.column_stack([ix * p, iy * p, np.zeros(ix.size)]),
                _checker_colors(ix, iy, tiles_per, base, alt),
            )
        )
        ix, iy = _grid(side, side)  # ceiling
        parts.append(
            (
                np.column_stack([ix * p, iy * p, np.full(ix.size, n_z * p)]),
                np.tile(wall, (ix.size, 1)),
            )
        )
        for y_row in (0, n):  # front and back walls, open top and bottom
            ix, iz = _grid(side, inner_height)
            parts.append(
                (
                    np.column_stack([ix * p, np.full(ix.size, y_row * p), iz * p]),
                    np.tile(wall, (ix.size, 1)),
                )
            )
        for x_col in (0, n):  # side walls, open on all four edges
            iy, iz = _grid(inner, inner_height)
            parts.append(
                (
                    np.column_stack([np.full(iy.size, x_col * p), iy * p, iz * p]),
                    np.tile(wall, (iy.size, 1)),
                )
            )
        xyz = np.vstack([part[0] for part in parts])
        rgb = np.vstack([part[1] for part in parts])

    else:  # pragma: no cover - enum is exhaustive
        raise InvalidParamsError(f"unhandled scene kind {spec.kind!r}")

    if spec.jitter > 0:
        rng = np.random.default_rng(spec.seed)
        amplitude = spec.jitter * p
        xyz = xyz + rng.uniform(-amplitude, amplitude, size=xyz.shape)

    return ColoredPointCloud(xyz, rgb, resolution=p, has_color=True)
