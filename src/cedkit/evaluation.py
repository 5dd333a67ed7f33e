"""Repeatability, runtime, and threshold-sweep evaluation of detectors.

Repeatability protocol: detect keypoints in a source cloud, build a copy
under a random rigid motion (optionally with Gaussian noise), detect again,
and count a source keypoint as repeated when its transformed position has a
detected keypoint strictly within epsilon in the copy. Matching is
one-directional; several source keypoints may share one match.

A "detector" here is any deterministic callable from a cloud to a
KeypointSet; factories for the bundled detectors are provided below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import mean, median
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .baseline import detect_random
from .cloud import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
)
from .detector import DetectorParams, KeypointSet, detect, prepare, select
from .errors import InvalidParamsError

Detector = Callable[[ColoredPointCloud], KeypointSet]

DEFAULT_EPSILON_FACTOR = 2.0  # of cloud resolution
DEFAULT_SIGMA_FACTOR = 0.5  # of cloud resolution
DEFAULT_TRIALS = 10


@dataclass(frozen=True)
class RepeatabilityConfig:
    """Evaluation knobs; epsilon and sigma default to multiples of resolution.

    epsilon: match radius in meters; None means 2 x cloud resolution.
    sigma: noise standard deviation in meters; None means 0.5 x resolution.
    """

    epsilon: float | None = None
    sigma: float | None = None
    transform_seed: int = 0
    noise_seed: int = 1000
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if self.epsilon is not None and not (self.epsilon > 0):
            raise InvalidParamsError(f"epsilon must be > 0, got {self.epsilon}")
        if self.sigma is not None and self.sigma < 0:
            raise InvalidParamsError(f"sigma must be >= 0, got {self.sigma}")
        if self.trials < 1:
            raise InvalidParamsError(f"trials must be >= 1, got {self.trials}")

    def resolve(self, resolution: float) -> tuple[float, float]:
        epsilon = self.epsilon if self.epsilon is not None else DEFAULT_EPSILON_FACTOR * resolution
        sigma = self.sigma if self.sigma is not None else DEFAULT_SIGMA_FACTOR * resolution
        return epsilon, sigma


@dataclass(frozen=True)
class RepeatabilityReport:
    """Aggregate over trials; relative = repeatable / total (0 when total is 0)."""

    total_keypoints: int
    repeatable_keypoints: float
    relative_repeatability: float
    detect_time_seconds: float
    trials: int
    empty_keypoint_set: bool = False
    per_trial: tuple[float, ...] = ()


@dataclass(frozen=True)
class RuntimeStats:
    mean_seconds: float
    median_seconds: float
    min_seconds: float
    samples: tuple[float, ...]


@dataclass(frozen=True)
class AblationRow:
    geo_threshold: float
    color_threshold: float
    keypoint_count: int
    repeatability: float
    runtime_seconds: float


def ced_detector(params: DetectorParams) -> Detector:
    """Detector callable with fixed parameters."""

    def run(cloud: ColoredPointCloud) -> KeypointSet:
        return detect(cloud, params)

    return run


def random_detector(count: int, seed: int) -> Detector:
    """Seeded random-baseline callable drawing a fresh sample per call.

    Each invocation advances the seed, so the source and transformed clouds
    get independent selections (a fixed selection would trivially repeat),
    while the call sequence as a whole stays reproducible.
    """
    state = {"calls": 0}

    def run(cloud: ColoredPointCloud) -> KeypointSet:
        call_seed = seed + state["calls"]
        state["calls"] += 1
        return detect_random(cloud, count, call_seed)

    return run


def sample_rigid_transform(rng: np.random.Generator) -> RigidTransform:
    """Rotation uniform over orientations, translation uniform in [-1, 1]^3.

    The rotation comes from a normalized 4-vector of standard normals, which
    is uniform on the unit quaternion sphere.
    """
    q = rng.normal(size=4)
    q /= np.sqrt(q @ q)
    w, x, y, z = q
    rotation = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    translation = rng.uniform(-1.0, 1.0, size=3)
    return RigidTransform(rotation, translation)


def count_matches(
    source_points: np.ndarray, target_points: np.ndarray, epsilon: float
) -> int:
    """How many source points have a target point strictly within epsilon.

    A k-d tree over the targets finds each source point's nearest target, so
    memory stays linear in the number of points. The strict test then runs on
    that pair's float64 squared distance, summed in the same order as the
    tree's own metric, so the tree's nearest is also the linear scan's.
    """
    if len(source_points) == 0 or len(target_points) == 0:
        return 0
    _, nearest = cKDTree(target_points).query(source_points)
    diffs = source_points - target_points[nearest]
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    return int(np.count_nonzero(d2 < epsilon * epsilon))


def _sample_transforms(config: RepeatabilityConfig) -> list[RigidTransform]:
    rng = np.random.default_rng(config.transform_seed)
    return [sample_rigid_transform(rng) for _ in range(config.trials)]


def _moved_copies(
    cloud: ColoredPointCloud,
    transforms: Sequence[RigidTransform],
    config: RepeatabilityConfig,
):
    """Yield (transform, copy) per trial, the copy built only when asked for.

    The copy is the cloud under the trial's rigid motion plus, when sigma > 0,
    Gaussian noise seeded with noise_seed + trial index.
    """
    _, sigma = config.resolve(cloud.resolution)
    for trial, transform in enumerate(transforms):
        moved = apply_rigid_transform(cloud, transform)
        if sigma > 0:
            moved = add_gaussian_noise(moved, sigma, config.noise_seed + trial)
        yield transform, moved


def evaluate_repeatability(
    cloud: ColoredPointCloud,
    detector: Detector,
    config: RepeatabilityConfig = RepeatabilityConfig(),
    transforms: Sequence[RigidTransform] | None = None,
) -> RepeatabilityReport:
    """Mean repeatability of a detector over random rigid motions of a cloud.

    Pass `transforms` to pin the motions (e.g. the identity); otherwise
    config.trials transforms are sampled from transform_seed. Noise uses a
    fresh seed per trial, derived as noise_seed + trial index.
    """
    epsilon, _ = config.resolve(cloud.resolution)

    start = time.perf_counter()
    source_keys = detector(cloud)
    detect_time = time.perf_counter() - start

    if transforms is None:
        transforms = _sample_transforms(config)
    total = len(source_keys)
    source_points = cloud.xyz[source_keys.indices]

    if total == 0:
        ratios = [0.0] * len(transforms)
    else:
        ratios = []
        for transform, moved in _moved_copies(cloud, transforms, config):
            target_points = moved.xyz[detector(moved).indices]
            matched = count_matches(transform.apply(source_points), target_points, epsilon)
            ratios.append(matched / total)

    relative = mean(ratios)
    return RepeatabilityReport(
        total_keypoints=total,
        repeatable_keypoints=relative * total,
        relative_repeatability=relative,
        detect_time_seconds=detect_time,
        trials=len(ratios),
        empty_keypoint_set=total == 0,
        per_trial=tuple(ratios),
    )


def measure_runtime(
    cloud: ColoredPointCloud, detector: Detector, repetitions: int = 5
) -> RuntimeStats:
    """Wall-clock seconds per detector run, sequentially, index build included."""
    if repetitions < 3:
        raise InvalidParamsError(f"repetitions must be >= 3, got {repetitions}")
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        detector(cloud)
        samples.append(time.perf_counter() - start)
    return RuntimeStats(mean(samples), median(samples), min(samples), tuple(samples))


def ablation_sweep(
    cloud: ColoredPointCloud,
    geo_thresholds: Sequence[float],
    color_thresholds: Sequence[float],
    fixed_params: DetectorParams,
    config: RepeatabilityConfig | None = None,
) -> list[AblationRow]:
    """One row per (geo, color) threshold pair, everything else held fixed.

    Each row's count and repeatability equal those of evaluate_repeatability
    with that row's parameters; unless overridden the sweep runs with
    sigma = 0 so rows isolate the thresholds from noise.

    The thresholds do not change the neighbor graph or the saliency fields,
    so the cloud and each trial's moved copy are prepared once (1 + trials
    prepare calls, whatever the grid size) and only selection runs per row.
    A row's runtime_seconds is the source cloud's prepare time plus that
    row's select time: the time a detection at the row's thresholds takes.
    """
    if len(geo_thresholds) == 0 or len(color_thresholds) == 0:
        raise InvalidParamsError("threshold lists must be non-empty")
    if config is None:
        config = RepeatabilityConfig(sigma=0.0)
    epsilon, _ = config.resolve(cloud.resolution)
    grid = [
        replace(fixed_params, geo_threshold=geo, color_threshold=color)
        for geo in geo_thresholds
        for color in color_thresholds
    ]

    start = time.perf_counter()
    prepared = prepare(cloud, fixed_params)
    prepare_time = time.perf_counter() - start
    sources, runtimes = [], []
    for params in grid:
        start = time.perf_counter()
        sources.append(select(prepared, params))
        runtimes.append(prepare_time + time.perf_counter() - start)
    source_points = [cloud.xyz[keys.indices] for keys in sources]

    ratios: list[list[float]] = [[] for _ in grid]
    for transform, moved in _moved_copies(cloud, _sample_transforms(config), config):
        target = prepare(moved, fixed_params)
        for row, params, points in zip(ratios, grid, source_points):
            target_points = moved.xyz[select(target, params).indices]
            matched = count_matches(transform.apply(points), target_points, epsilon)
            row.append(matched / len(points) if len(points) else 0.0)

    return [
        AblationRow(
            geo_threshold=params.geo_threshold,
            color_threshold=params.color_threshold,
            keypoint_count=len(keys),
            repeatability=mean(row),
            runtime_seconds=runtime,
        )
        for params, keys, row, runtime in zip(grid, sources, ratios, runtimes)
    ]


def repeatability_csv(report: RepeatabilityReport) -> str:
    header = "total_keypoints,repeatable_keypoints,relative_repeatability,detect_time_seconds"
    row = (
        f"{report.total_keypoints},{report.repeatable_keypoints:.9g},"
        f"{report.relative_repeatability:.9g},{report.detect_time_seconds:.9g}"
    )
    return header + "\n" + row + "\n"


def runtime_csv(stats: RuntimeStats) -> str:
    header = "mean_seconds,median_seconds,min_seconds,repetitions"
    row = (
        f"{stats.mean_seconds:.9g},{stats.median_seconds:.9g},"
        f"{stats.min_seconds:.9g},{len(stats.samples)}"
    )
    return header + "\n" + row + "\n"


def ablation_csv(rows: Sequence[AblationRow], config: RepeatabilityConfig) -> str:
    lines = [
        f"# sigma={config.sigma if config.sigma is not None else 'default'}"
        f" epsilon={config.epsilon if config.epsilon is not None else 'default'}"
        f" trials={config.trials}",
        "t_g,t_c,keypoint_count,repeatability,runtime_seconds",
    ]
    for row in rows:
        lines.append(
            f"{row.geo_threshold:.9g},{row.color_threshold:.9g},"
            f"{row.keypoint_count},{row.repeatability:.9g},{row.runtime_seconds:.9g}"
        )
    return "\n".join(lines) + "\n"
