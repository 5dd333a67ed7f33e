"""Repeatability, runtime, and threshold-sweep evaluation of detectors.

Repeatability protocol: detect keypoints in a source cloud, build a copy
under a random rigid motion (optionally with Gaussian noise), detect again,
and count a source keypoint as repeated when its transformed position has a
detected keypoint strictly within epsilon in the copy. Matching is
one-directional; several source keypoints may share one match.

A "detector" here is any deterministic callable from a cloud to a
KeypointSet; factories for the bundled detectors are provided below.

Copies are detected only where matching looks. The CED decision on a point
reads only points within 2r of it, its reach: its validity and saliencies
come from its own r-neighborhood, its suppression from its neighbors'
products, each from that neighbor's r-neighborhood. Matching reads only
copy keypoints strictly within epsilon of a moved source keypoint. So the
copy is detected on its window, its points within epsilon + reach of those
centers (widened by the index's candidate slack), which decides every
keypoint matching can see as the whole copy would. An empty window scores
0 without detection. A detector without a reach (the random baseline, user
callables) has an infinite one, whose window is the whole copy. Caveat: the
window's tree lists the neighbor pairs in another order, so a decision that
rests on the last ulp of a centroid may go either way, as with any change of
tree layout.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from statistics import mean, median
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .cloud import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
    require_seed,
)
from .detector import DetectorParams, KeypointSet, detect, prepare, select
from .errors import InvalidParamsError
from .index import _CANDIDATE_SLACK

Detector = Callable[[ColoredPointCloud], KeypointSet]

DEFAULT_EPSILON_FACTOR = 2.0  # of cloud resolution
DEFAULT_SIGMA_FACTOR = 0.5  # of cloud resolution
DEFAULT_TRIALS = 10


@dataclass(frozen=True)
class RepeatabilityConfig:
    """Evaluation knobs; epsilon and sigma default to multiples of resolution.

    epsilon: finite match radius > 0, in meters; None means 2 x resolution.
    sigma: finite noise sigma >= 0, in meters; None means 0.5 x resolution.
    transform_seed, noise_seed: non-negative integers.
    """

    epsilon: float | None = None
    sigma: float | None = None
    transform_seed: int = 0
    noise_seed: int = 1000
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise InvalidParamsError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.sigma is not None and not 0 <= self.sigma < np.inf:
            raise InvalidParamsError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.trials < 1:
            raise InvalidParamsError(f"trials must be >= 1, got {self.trials}")
        for name in ("transform_seed", "noise_seed"):
            require_seed(getattr(self, name), name)

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


def _reach(params: DetectorParams) -> float:
    """How far from a point the CED keypoint decision on it reads: 2 x radius."""
    return 2.0 * params.radius


def ced_detector(params: DetectorParams) -> Detector:
    """Detector callable with fixed parameters and a ``reach`` attribute (2 x radius)."""

    def run(cloud: ColoredPointCloud) -> KeypointSet:
        return detect(cloud, params)

    run.reach = _reach(params)
    return run


def detect_random(cloud: ColoredPointCloud, count: int, seed: int) -> KeypointSet:
    """Uniform sample of `count` distinct point indices, ascending.

    The comparison floor for every evaluation. Sampling is a partial
    Fisher-Yates shuffle over the index range driven by a PCG64 generator,
    so a fixed seed gives a bit-identical selection and every size-count
    subset is equally likely.
    """
    require_seed(seed, "seed")
    n = len(cloud)
    if not 1 <= count <= n:
        raise InvalidParamsError(f"count must be in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    pool = np.arange(n, dtype=np.int64)
    for k in range(count):
        j = int(rng.integers(k, n))
        pool[k], pool[j] = pool[j], pool[k]
    return KeypointSet(np.sort(pool[:count]))


def random_detector(count: int, seed: int) -> Detector:
    """Seeded random-baseline callable drawing a fresh sample per call.

    Each invocation advances the seed, so the source and transformed clouds
    get independent selections (a fixed selection would trivially repeat),
    while the call sequence as a whole stays reproducible.
    """
    seeds = itertools.count(seed)

    def run(cloud: ColoredPointCloud) -> KeypointSet:
        return detect_random(cloud, count, next(seeds))

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
    that pair's float64 squared distance, summed x, then y, then z: the
    order in which the linear-scan definition sums it, so a pair at exactly
    epsilon is excluded by both.
    """
    if len(source_points) == 0 or len(target_points) == 0:
        return 0
    _, nearest = cKDTree(target_points).query(source_points)
    diffs = source_points - target_points[nearest]
    d2 = diffs[:, 0] ** 2 + diffs[:, 1] ** 2 + diffs[:, 2] ** 2
    return int(np.count_nonzero(d2 < epsilon * epsilon))


def _window(moved: ColoredPointCloud, centers: np.ndarray, distance: float) -> np.ndarray:
    """Ascending indices of the copy's points within distance of any center.

    The distance is widened by the index's candidate slack, so rounding in
    the tree's metric never drops a point that decides a match. A bounded
    nearest-center query takes about half the time of counting all centers
    in range (a 23k-point copy, 22 to 86 centers). An infinite distance (a
    detector without a reach) takes every point, when there is a center,
    without building a tree.
    """
    if distance == np.inf:
        return np.arange(len(moved) if len(centers) else 0)
    nearest, _ = cKDTree(centers).query(
        moved.xyz, distance_upper_bound=distance * _CANDIDATE_SLACK
    )
    return np.flatnonzero(nearest < np.inf)


def _subcloud(cloud: ColoredPointCloud, indices: np.ndarray) -> ColoredPointCloud:
    """The cloud's points at ascending indices; the cloud itself when that is all of them."""
    if len(indices) == len(cloud):
        return cloud
    return ColoredPointCloud(cloud.xyz[indices], cloud.rgb[indices], cloud.resolution,
                             cloud.has_color)


def _sample_transforms(config: RepeatabilityConfig) -> list[RigidTransform]:
    rng = np.random.default_rng(config.transform_seed)
    return [sample_rigid_transform(rng) for _ in range(config.trials)]


def _trials(cloud: ColoredPointCloud, sources: Sequence[KeypointSet], reach: float,
            detect_window: Callable[[ColoredPointCloud], list[KeypointSet]],
            config: RepeatabilityConfig, transforms: Sequence[RigidTransform]) -> list[list[float]]:
    """Each source's share of matched keypoints per trial, one list per source.

    Per trial, the copy is the cloud under the trial's rigid motion plus, when
    sigma > 0, Gaussian noise seeded with noise_seed + trial index. It is
    detected once, on its window: its points within epsilon + reach of every
    source's moved keypoints. detect_window returns one KeypointSet per
    source, in window indices, which map back through the window. An empty
    window scores 0 without detection, and a source without keypoints
    scores 0.
    """
    epsilon, sigma = config.resolve(cloud.resolution)
    source_points = [cloud.xyz[keys.indices] for keys in sources]
    every_source = cloud.xyz[np.unique(np.concatenate([keys.indices for keys in sources]))]
    ratios: list[list[float]] = [[] for _ in sources]
    for trial, transform in enumerate(transforms):
        moved = apply_rigid_transform(cloud, transform)
        if sigma > 0:
            moved = add_gaussian_noise(moved, sigma, config.noise_seed + trial)
        window = _window(moved, transform.apply(every_source), epsilon + reach)
        if len(window):
            found = [window[keys.indices] for keys in detect_window(_subcloud(moved, window))]
        else:
            found = [window] * len(sources)
        for row, points, targets in zip(ratios, source_points, found):
            matched = count_matches(transform.apply(points), moved.xyz[targets], epsilon)
            row.append(matched / len(points) if len(points) else 0.0)
    return ratios


def evaluate_repeatability(
    cloud: ColoredPointCloud,
    detector: Detector,
    config: RepeatabilityConfig = RepeatabilityConfig(),
    transforms: Sequence[RigidTransform] | None = None,
) -> RepeatabilityReport:
    """Mean repeatability of a detector over random rigid motions of a cloud.

    Pass `transforms`, at least one, to pin the motions (e.g. the
    identity); otherwise config.trials transforms are sampled from
    transform_seed. Noise uses a fresh seed per trial, derived as
    noise_seed + trial index.

    A detector with a ``reach`` (ced_detector's) runs on each copy's window
    only, the points within epsilon + reach of the moved source keypoints,
    and its keypoints map back through the window's indices; the ratios are
    those of whole-copy detection (module docstring). An empty window
    scores 0. Other detectors have an infinite reach: they get the whole copy.
    """
    if transforms is None:
        transforms = _sample_transforms(config)
    if len(transforms) == 0:
        raise InvalidParamsError("transforms must hold at least one transform")
    reach = getattr(detector, "reach", np.inf)

    start = time.perf_counter()
    source_keys = detector(cloud)
    detect_time = time.perf_counter() - start

    total = len(source_keys)
    [ratios] = _trials(cloud, [source_keys], reach, lambda window: [detector(window)], config,
                       transforms)

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

    Each copy is prepared on its window only (see evaluate_repeatability),
    taken around the union of every row's source keypoints so that one
    window serves every row; an empty window scores 0 in every row.
    """
    if len(geo_thresholds) == 0 or len(color_thresholds) == 0:
        raise InvalidParamsError("threshold lists must be non-empty")
    if config is None:
        config = RepeatabilityConfig(sigma=0.0)
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

    def select_rows(window: ColoredPointCloud) -> list[KeypointSet]:
        target = prepare(window, fixed_params)
        return [select(target, params) for params in grid]

    ratios = _trials(cloud, sources, _reach(fixed_params), select_rows, config,
                     _sample_transforms(config))
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
