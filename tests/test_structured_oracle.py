"""Detection on seeded structured clouds against the brute-force oracle.

Criterion 1's random clouds have no uniform patches, byte colors, lattice
structure, slabs or core. These clouds are small synthetic scenes (planes,
box corners, checker floors and rooms of 441-631 points, jitter 0.35), half
of them read back from binary PLY, each detected at a random radius and
random thresholds. Detection must equal detect_brute_force exactly: as is,
with the index forced into slabs, and on a random core for the core points
whose neighbors all lie in it. The mode is CED_3D: CED's equality with the
oracle on uniform patches waits for one rule for uniform color.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from cedkit import (
    CloudFormat,
    DetectorMode,
    DetectorParams,
    SceneKind,
    SceneSpec,
    detect,
    generate_scene,
    index,
    parse_cloud,
    prepare,
    select,
    write_cloud,
)
from oracles import detect_brute_force, linear_scan_neighbors

CASES = range(40)
PITCH = 0.01
# Extents in pitches, for 441-631 points of each kind.
EXTENTS = {
    SceneKind.PLANE: (20, 24),
    SceneKind.BOX_CORNER: (12, 14),
    SceneKind.CHECKER_FLOOR: (20, 24),
    SceneKind.ROOM_COMPOSITE: (12, 13),
}


def structured_case(case: int, mode=DetectorMode.CED_3D):
    """The seeded cloud and parameters of one case."""
    rng = np.random.default_rng([case, 20])
    kind = list(EXTENTS)[case % 4]
    low, high = EXTENTS[kind]
    spec = SceneSpec(kind=kind, extent=int(rng.integers(low, high + 1)) * PITCH, pitch=PITCH,
                     tile=5 * PITCH, jitter=0.35, seed=case)
    cloud = generate_scene(spec)
    if case // 4 % 2:
        cloud = parse_cloud(write_cloud(cloud, CloudFormat.PLY_BINARY_LE),
                            CloudFormat.PLY_BINARY_LE)
    params = DetectorParams(radius=rng.uniform(2, 5) * PITCH,
                            geo_threshold=rng.uniform(0, 0.5),
                            color_threshold=rng.uniform(0, 0.6), mode=mode)
    return cloud, params


@functools.cache
def oracle_case(case: int):
    """structured_case's cloud and parameters with the oracle's keypoints."""
    cloud, params = structured_case(case)
    return cloud, params, detect_brute_force(cloud, params)


@pytest.mark.parametrize("case", CASES)
def test_detect_equals_oracle(case):
    cloud, params, expected = oracle_case(case)
    assert np.array_equal(detect(cloud, params).indices, expected)


def test_forced_slabs_equal_oracle(monkeypatch):
    # Slabs need a span of two least slab widths, so only the clouds wide
    # enough for their radius are sliced: 19 of the 40, most of them planes
    # and checker floors.
    trees = []
    build = index._kdtree
    monkeypatch.setattr(index, "_SLAB_POINTS", 64)
    monkeypatch.setattr(index, "_kdtree", lambda xyz: trees.append(len(xyz)) or build(xyz))
    sliced = 0
    for case in CASES:
        cloud, params, expected = oracle_case(case)
        trees.clear()
        assert np.array_equal(detect(cloud, params).indices, expected), case
        sliced += max(trees) < len(cloud)
    assert sliced >= 10


@pytest.mark.parametrize("case", CASES)
def test_core_decisions_equal_oracle(case):
    cloud, params, expected = oracle_case(case)
    rng = np.random.default_rng([case, 21])
    # a ball around a random point, plus a sprinkle of points elsewhere
    center = cloud.xyz[rng.integers(len(cloud))]
    ball = np.linalg.norm(cloud.xyz - center, axis=1) < rng.uniform(2, 5) * params.radius
    core = ball | (rng.random(len(cloud)) < 0.1)
    selected = np.zeros(len(cloud), dtype=bool)
    selected[select(prepare(cloud, params, core), params).indices] = True
    whole = np.zeros(len(cloud), dtype=bool)
    whole[expected] = True
    inside = [i for i in np.flatnonzero(core)
              if core[linear_scan_neighbors(cloud.xyz, i, params.radius)].all()]
    assert len(inside) > 0
    assert np.array_equal(selected[inside], whole[inside])
    assert not selected[~core].any()
