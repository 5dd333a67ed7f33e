from __future__ import annotations

import numpy as np
import pytest

from cedkit import ColoredPointCloud, SceneKind, SceneSpec, generate_scene

# 1,442 points: small enough for a few thousand parses in a few seconds
PROBE_ROOM = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.2, pitch=0.01, tile=0.4,
                       jitter=0.35, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def small_cloud(rng):
    xyz = rng.uniform(0, 1, size=(60, 3))
    rgb = rng.uniform(0, 1, size=(60, 3))
    return ColoredPointCloud(xyz, rgb, resolution=0.05)


@pytest.fixture(scope="session")
def probe_room():
    return generate_scene(PROBE_ROOM)
