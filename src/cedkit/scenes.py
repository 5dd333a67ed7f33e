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

Each kind is written once, as a table of axis-aligned lattice faces; the
point count and the points are both read from it, so SceneSpec knows the
size of a scene before anything is allocated.

A non-zero ``jitter`` displaces every point by a seeded uniform offset of at
most jitter x pitch per axis. Sub-pitch jitter leaves the declared resolution
meaningful while breaking the exact symmetries of the lattice, which makes
saliency maxima unique and keeps neighborhoods away from the radius boundary;
evaluation on regular lattices would otherwise ride on floating-point ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cloud import ColoredPointCloud, require_integer, require_real
from .errors import InvalidParamsError

Color = tuple[float, float, float]

# Fixed scene colors; the checker pattern alternates base and alt tiles.
_BASE_COLOR: Color = (0.8, 0.2, 0.2)
_ALT_COLOR: Color = (0.2, 0.8, 0.2)
_WALL_COLOR: Color = (0.5, 0.5, 0.5)

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

    Requires 0 < pitch <= extent < inf (a room: extent of at least two
    pitches), 0 < tile < inf, finite extent / pitch and tile / pitch,
    0 <= jitter < 0.5, an integer seed >= 0 and at most MAX_SCENE_POINTS
    points; InvalidParamsError otherwise. The colors are fixed.
    """

    kind: SceneKind
    extent: float = 1.0
    pitch: float = 0.01
    tile: float = 0.2
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, SceneKind):
            raise InvalidParamsError(f"kind must be a SceneKind, got {self.kind!r}")
        require_real(self.extent, "extent")
        require_real(self.pitch, "pitch", 0, self.extent, "(]")
        require_real(self.tile, "tile")
        for name in ("extent", "tile"):
            if not np.isfinite(getattr(self, name) / self.pitch):
                raise InvalidParamsError(
                    f"{name} / pitch must be finite, got {getattr(self, name)} / {self.pitch}"
                )
        require_integer(self.seed, "seed")
        require_real(self.jitter, "jitter", 0, 0.5, "[)")
        if self.kind is SceneKind.ROOM_COMPOSITE and int(round(self.extent / self.pitch)) < 2:
            # at one pitch the faces are a floor and a ceiling with no walls
            raise InvalidParamsError(
                f"a room needs an extent of at least two pitches, got extent {self.extent}, "
                f"pitch {self.pitch}"
            )
        count = self.n_points
        if count > MAX_SCENE_POINTS:
            raise InvalidParamsError(
                f"scene would have {count} points, more than {MAX_SCENE_POINTS}; "
                "raise pitch or lower extent"
            )

    @property
    def n_points(self) -> int:
        """Number of points generate_scene returns, counted without allocating."""
        # stop - start rather than len(), which overflows past sys.maxsize
        return sum(math.prod(r.stop - r.start for r in axes) for axes, _ in _faces(self))


def _at(i: int) -> range:
    return range(i, i + 1)


def _faces(spec: SceneSpec) -> list[tuple[tuple[range, range, range], Color | None]]:
    """The scene as lattice faces in generation order.

    Each face is an x, y and z range of lattice indices, one of them a single
    plane, and its paint: a color, or None for the checker pattern. Every
    shared edge belongs to exactly one face.
    """
    n = int(round(spec.extent / spec.pitch))
    side, inner = range(n + 1), range(1, n)
    floor = (side, side, _at(0))
    if spec.kind is SceneKind.PLANE:
        return [(floor, _BASE_COLOR)]
    if spec.kind is SceneKind.CHECKER_FLOOR:
        return [(floor, None)]
    if spec.kind is SceneKind.BOX_CORNER:
        # the z = 0 face keeps both axis lines, the y = 0 face the x axis line
        rise, base = range(1, n + 1), _BASE_COLOR
        return [(floor, base), ((side, _at(0), rise), base), ((_at(0), rise, rise), base)]
    # room: checkered floor, ceiling, then walls open at top and bottom; the
    # front and back walls keep the vertical edges
    n_z = max(2, int(round(0.4 * spec.extent / spec.pitch)))
    height, wall = range(1, min(n_z, n)), _WALL_COLOR
    return [(floor, None), ((side, side, _at(n_z)), wall),
            ((side, _at(0), height), wall), ((side, _at(n), height), wall),
            ((_at(0), inner, height), wall), ((_at(n), inner, height), wall)]


def generate_scene(spec: SceneSpec) -> ColoredPointCloud:
    """Deterministic cloud for the spec; identical spec, identical cloud."""
    base = np.asarray(_BASE_COLOR, dtype=np.float64)
    alt = np.asarray(_ALT_COLOR, dtype=np.float64)
    tiles_per = max(1, int(round(spec.tile / spec.pitch)))
    lattices, colors = [], []
    for axes, paint in _faces(spec):
        grids = np.meshgrid(*(np.arange(r.start, r.stop) for r in axes), indexing="ij", copy=False)
        ijk = np.stack(grids, axis=-1).reshape(-1, 3)  # x slowest, z fastest
        if paint is None:
            parity = (ijk[:, :1] // tiles_per + ijk[:, 1:2] // tiles_per) % 2
            colors.append(np.where(parity == 0, base, alt))
        else:
            colors.append(np.broadcast_to(np.asarray(paint, dtype=np.float64), ijk.shape))
        lattices.append(ijk)
    xyz = np.vstack(lattices) * spec.pitch
    if spec.jitter > 0:
        rng = np.random.default_rng(spec.seed)
        amplitude = spec.jitter * spec.pitch
        xyz = xyz + rng.uniform(-amplitude, amplitude, size=xyz.shape)
    return ColoredPointCloud(xyz, np.vstack(colors), resolution=spec.pitch, has_color=True)
