"""Random keypoint selection, the comparison floor for every evaluation."""

from __future__ import annotations

import numpy as np

from .cloud import ColoredPointCloud
from .detector import KeypointSet
from .errors import InvalidParamsError


def detect_random(cloud: ColoredPointCloud, count: int, seed: int) -> KeypointSet:
    """Uniform sample of `count` distinct point indices, ascending.

    Sampling is a partial Fisher-Yates shuffle over the index range driven by
    a PCG64 generator, so a fixed seed gives a bit-identical selection and
    every size-count subset is equally likely.
    """
    n = len(cloud)
    if not 1 <= count <= n:
        raise InvalidParamsError(f"count must be in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    pool = np.arange(n, dtype=np.int64)
    for k in range(count):
        j = int(rng.integers(k, n))
        pool[k], pool[j] = pool[j], pool[k]
    return KeypointSet(np.sort(pool[:count]), params=None)
