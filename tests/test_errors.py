from __future__ import annotations

import numpy as np
import pytest

from cedkit import (
    SceneKind,
    SceneSpec,
    add_gaussian_noise,
    build_index,
    detect_random,
)
from cedkit.errors import InvalidParamsError
from oracles import random_colored_cloud


@pytest.mark.parametrize(
    "call",
    [
        lambda cloud: add_gaussian_noise(cloud, -1.0, seed=0),
        lambda cloud: build_index(cloud).neighbor_graph(0.0),
        lambda cloud: detect_random(cloud, 0, seed=0),
        lambda cloud: SceneSpec(kind=SceneKind.PLANE, pitch=0.0),
    ],
    ids=["sigma-minus-1", "radius-0", "random-count-0", "pitch-0"],
)
def test_range_errors_are_invalid_params(call):
    cloud = random_colored_cloud(np.random.default_rng(0), 10)
    with pytest.raises(InvalidParamsError):
        call(cloud)
