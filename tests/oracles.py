"""Independent brute-force references the test suite checks the package against.

Everything here is written as a direct transcription of the definitions:
linear-scan neighborhoods, per-point python loops, sequential accumulation.
None of it shares code with the production paths.
"""

from __future__ import annotations

import math

import numpy as np

from cedkit import ColoredPointCloud, DetectorMode, DetectorParams


def linear_scan_neighbors(xyz: np.ndarray, query: int, radius: float) -> np.ndarray:
    """Strict-inequality radius search by scanning every point."""
    diffs = xyz - xyz[query]
    d2 = (diffs**2).sum(axis=1)
    return np.nonzero(d2 < radius * radius)[0]


def graph_neighbors(graph, query: int) -> np.ndarray:
    """A point's neighborhood read from a neighbor graph's pairs, the point included.

    Ascending, and nothing is deduplicated: a pair stored twice, or a stored
    self-pair, shows up as a repeated index next to the scan's.
    """
    first, second = graph.pairs.T
    return np.sort(np.concatenate([[query], second[first == query], first[second == query]]))


def sequential_mean(rows: np.ndarray) -> np.ndarray:
    """Arithmetic mean accumulating sequentially in row order."""
    total = [0.0, 0.0, 0.0]
    for row in rows:
        for axis in range(3):
            total[axis] += float(row[axis])
    return np.array([t / len(rows) for t in total])


def compensated_mean(rows: np.ndarray) -> np.ndarray:
    """High-precision mean via exact float summation."""
    return np.array([math.fsum(rows[:, axis]) / len(rows) for axis in range(3)])


def saliency_brute_force(cloud: ColoredPointCloud, params: DetectorParams):
    """Per-point centroid distances with linear-scan neighborhoods.

    Returns (geo, color, valid); color is all zeros in geometry-only mode.
    Points with fewer than min_neighbors neighbors get value 0 and
    valid=False.
    """
    n = len(cloud)
    geo = np.zeros(n)
    color = np.zeros(n)
    valid = np.zeros(n, dtype=bool)
    want_color = params.mode is DetectorMode.CED
    for i in range(n):
        neighbors = linear_scan_neighbors(cloud.xyz, i, params.radius)
        if neighbors.size < params.min_neighbors:
            continue
        valid[i] = True
        centroid = sequential_mean(cloud.xyz[neighbors])
        offset = cloud.xyz[i] - centroid
        geo[i] = math.sqrt(offset[0] ** 2 + offset[1] ** 2 + offset[2] ** 2)
        if want_color:
            color_centroid = sequential_mean(cloud.rgb[neighbors])
            delta = cloud.rgb[i] - color_centroid
            color[i] = abs(delta[0]) + abs(delta[1]) + abs(delta[2])
    return geo, color, valid


def nms_transcription(
    values_per_modality: list[np.ndarray],
    thresholds: list[float],
    neighbor_sets: list[np.ndarray],
    valid: np.ndarray,
) -> np.ndarray:
    """Literal double-loop non-maximum suppression over explicit neighbor sets."""
    n = len(valid)
    products = np.ones(n)
    for values in values_per_modality:
        products = products * values
    selected = []
    for i in range(n):
        if not valid[i]:
            continue
        if all(values[i] < thr for values, thr in zip(values_per_modality, thresholds)):
            continue
        maximum = True
        for j in neighbor_sets[i]:
            if not valid[j]:
                continue
            if products[i] < products[j]:
                maximum = False
        if maximum:
            selected.append(i)
    return np.array(selected, dtype=np.int64)


def detect_brute_force(cloud: ColoredPointCloud, params: DetectorParams) -> np.ndarray:
    """Whole-pipeline transcription: scan neighborhoods, saliency, then NMS."""
    geo, color, valid = saliency_brute_force(cloud, params)
    neighbor_sets = [
        linear_scan_neighbors(cloud.xyz, i, params.radius) for i in range(len(cloud))
    ]
    if params.mode is DetectorMode.CED:
        modalities = [geo, color]
        thresholds = [params.geo_threshold * params.radius, params.color_threshold]
    else:
        modalities = [geo]
        thresholds = [params.geo_threshold * params.radius]
    return nms_transcription(modalities, thresholds, neighbor_sets, valid)


def repeatable_count_brute_force(
    transformed_source: np.ndarray, target_keypoints: np.ndarray, epsilon: float
) -> int:
    """Definition of the match count: nearest target strictly within epsilon."""
    count = 0
    for point in transformed_source:
        best = math.inf
        for candidate in target_keypoints:
            d2 = float(((point - candidate) ** 2).sum())
            if d2 < best:
                best = d2
        if best < epsilon * epsilon:
            count += 1
    return count


def exact_tie_pairs(rng: np.random.Generator, count: int):
    """Seeded point pairs (p, q) with a radius r where r * r equals the scan's d2.

    d2 is ``((q - p)**2).sum()``, the order in which every definition here
    sums it. A strict test must exclude each such pair. Pairs whose d2 an
    einsum puts one ulp lower (it adds the squares in another order) are
    the ones a reordered sum wrongly keeps; up to count of them are
    returned, or every exact tie found if the einsum never disagrees.
    """
    ties, reordered = [], []
    for _ in range(20_000):
        p, q = rng.uniform(0.0, 1.0, size=(2, 3))
        d = q - p
        d2 = float((d**2).sum())
        root = math.sqrt(d2)
        radii = [r for r in (root, np.nextafter(root, 0.0), np.nextafter(root, 2.0)) if r * r == d2]
        if not radii:
            continue
        ties.append((p, q, float(radii[0])))
        if np.einsum("ij,ij->i", d[None], d[None])[0] == np.nextafter(d2, 0.0):
            reordered.append(ties[-1])
            if len(reordered) == count:
                break
    return reordered or ties


def random_colored_cloud(
    rng: np.random.Generator, n_points: int, extent: float = 1.0
) -> ColoredPointCloud:
    """Generic random cloud: uniform positions and colors, no symmetry."""
    xyz = rng.uniform(0.0, extent, size=(n_points, 3))
    rgb = rng.uniform(0.0, 1.0, size=(n_points, 3))
    return ColoredPointCloud(xyz, rgb, resolution=extent / 20.0, has_color=True)


def float32_valued_cloud(rng: np.random.Generator, n_points: int) -> ColoredPointCloud:
    """Random cloud whose coordinates are exactly float32-representable."""
    xyz = rng.uniform(-2.0, 2.0, size=(n_points, 3)).astype(np.float32).astype(np.float64)
    rgb = rng.integers(0, 256, size=(n_points, 3)).astype(np.float64) / 255.0
    return ColoredPointCloud(xyz, rgb, resolution=0.05, has_color=True)
