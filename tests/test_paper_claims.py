"""The source paper's claims, checked on synthetic scenes.

Claim 1: CED extracts color-salient keypoints that geometry-only detection
misses. Inside a flat checker floor only color is salient, so every interior
CED keypoint must sit on a tile edge, and CED_3D must find none there.
"""

from __future__ import annotations

import numpy as np
import pytest

from cedkit import DetectorMode, DetectorParams, SceneKind, SceneSpec, detect, generate_scene

EXTENT = 0.8
PITCH = 0.01
TILE = 0.2
RADIUS = 0.052


def interior_keypoints(seed: int, mode: DetectorMode) -> np.ndarray:
    """xy of the keypoints more than 2r from every edge of the floor."""
    spec = SceneSpec(kind=SceneKind.CHECKER_FLOOR, extent=EXTENT, pitch=PITCH, tile=TILE,
                     jitter=0.35, seed=seed)
    cloud = generate_scene(spec)
    params = DetectorParams(radius=RADIUS, geo_threshold=0.4, color_threshold=0.6, mode=mode)
    xy = cloud.xyz[detect(cloud, params).indices, :2]
    interior = np.all((xy > 2 * RADIUS) & (xy < EXTENT - 2 * RADIUS), axis=1)
    return xy[interior]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_color_keypoints_on_tile_edges_that_geometry_misses(seed):
    ced = interior_keypoints(seed, DetectorMode.CED)
    assert len(ced) >= 1
    # distance in x or y to the nearest tile edge, a multiple of the tile size
    to_edge = np.abs(ced - np.round(ced / TILE) * TILE).min(axis=1)
    assert np.all(to_edge <= PITCH)
    assert len(interior_keypoints(seed, DetectorMode.CED_3D)) == 0
