"""Repeatability, runtime, and threshold-sweep evaluation of detectors.

Repeatability protocol: detect keypoints in a source cloud, build a copy
under a random rigid motion (optionally with Gaussian noise), detect again,
and count a source keypoint as repeated when its transformed position has a
detected keypoint strictly within epsilon in the copy. Matching is
one-directional; several source keypoints may share one match.

A "detector" here is any deterministic callable from a cloud to a
KeypointSet; factories for the bundled detectors are provided below.

Copies are detected only where matching looks. Matching reads only copy
keypoints strictly within epsilon of a moved source keypoint, a center. The
CED decision on such a point reads the products of its neighbors, points
within epsilon + r of a center, and each product reads that neighbor's own
r-neighborhood, points within epsilon + 2r. So each copy is prepared on its
window, its points within epsilon + 2r of a center, and its neighbor graph
keeps only the pairs with an end in the core, the points within epsilon + r
(detector.prepare). Both radii are widened by the index's candidate slack.
Every keypoint that matching can see is then decided as on the whole copy;
points outside the core get partial sums and are never selected, and no
decision that matching reads depends on them. An empty window scores 0 without detection. A
detector without params (the random baseline, user callables) gets the
whole copy. Caveat: the window's trees list the neighbor pairs in another
order, so a decision that rests on the last ulp of a centroid may go either
way, as with any change of tree layout.

Window and core are found from the source frame. A rigid motion keeps each
point's distance to the nearest source keypoint, and noise moves a point by
its own shift, so in the copy that distance lies within the source frame's
plus or minus the shift, up to rounding. A point whose interval lies wholly
inside or outside a radius is settled; only the others are queried against
the centers, so both sets equal the query's over every point.
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
    require_integer,
    require_real,
)
from .detector import DetectorParams, KeypointSet, detect, prepare, select
from .errors import InvalidParamsError
from .index import _CANDIDATE_SLACK

Detector = Callable[[ColoredPointCloud], KeypointSet]

DEFAULT_EPSILON_FACTOR = 2.0  # of cloud resolution
DEFAULT_SIGMA_FACTOR = 0.5  # of cloud resolution
DEFAULT_TRIALS = 10
# Rounding margin of a window's settled points, relative to the coordinates'
# magnitude: far above the few ulps that the motion, the noise and the
# distances round by, far below any spacing of points.
_ROUNDING = 2.0 ** -40


@dataclass(frozen=True)
class RepeatabilityConfig:
    """Evaluation knobs; epsilon and sigma default to multiples of resolution.

    epsilon: finite match radius > 0, in meters; None means 2 x resolution.
    sigma: finite noise sigma >= 0, in meters; None means 0.5 x resolution.
    transform_seed, noise_seed: non-negative integers.
    trials: an integer >= 1.
    """

    epsilon: float | None = None
    sigma: float | None = None
    transform_seed: int = 0
    noise_seed: int = 1000
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if self.epsilon is not None:
            require_real(self.epsilon, "epsilon")
        if self.sigma is not None:
            require_real(self.sigma, "sigma", ends="[)")
        require_integer(self.trials, "trials", 1)
        for name in ("transform_seed", "noise_seed"):
            require_integer(getattr(self, name), name)

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
    """Detector callable with fixed parameters, exposed as its ``params`` attribute."""

    def run(cloud: ColoredPointCloud) -> KeypointSet:
        return detect(cloud, params)

    run.params = params
    return run


def detect_random(cloud: ColoredPointCloud, count: int, seed: int) -> KeypointSet:
    """Uniform sample of `count` distinct point indices, ascending.

    The comparison floor for every evaluation. Sampling is a partial
    Fisher-Yates shuffle over the index range driven by a PCG64 generator,
    so a fixed seed gives a bit-identical selection and every size-count
    subset is equally likely.
    """
    require_integer(seed, "seed")
    require_integer(count, "count", 1)
    n = len(cloud)
    if count > n:
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


def _window(cloud: ColoredPointCloud, clean: ColoredPointCloud, moved: ColoredPointCloud,
            centers: np.ndarray, near: np.ndarray, distances: Sequence[float]) -> list[np.ndarray]:
    """Per distance, the mask of moved's points within it of a center, widened by the slack.

    clean is the cloud under the rigid motion that maps its keypoints to
    the centers, moved is clean plus noise, and near holds each point's
    distance to the nearest keypoint in the cloud (module docstring). The
    margin bounds the rounding of the motion, the noise and the distances,
    scaled to the coordinates' magnitude. Points it cannot settle get the
    bounded nearest-center query, so each mask equals that query's.
    """
    shift = 0.0
    if moved is not clean:
        offsets = moved.xyz - clean.xyz
        shift = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
    scale = np.abs(cloud.xyz).max() + np.abs(clean.xyz).max() + np.abs(moved.xyz).max()
    tree = cKDTree(centers)
    masks = []
    for distance in distances:
        bound = distance * _CANDIDATE_SLACK
        margin = _ROUNDING * (scale + bound)
        inside = near + shift < bound - margin
        unsure = ~inside & (near - shift <= bound + margin)
        nearest, _ = tree.query(moved.xyz[unsure], distance_upper_bound=bound)
        inside[unsure] = nearest < np.inf
        masks.append(inside)
    return masks


def _subcloud(cloud: ColoredPointCloud, indices: np.ndarray) -> ColoredPointCloud:
    """The cloud's points at ascending indices; the cloud itself when that is all of them."""
    if len(indices) == len(cloud):
        return cloud
    return ColoredPointCloud(cloud.xyz[indices], cloud.rgb[indices], cloud.resolution,
                             cloud.has_color)


def _sample_transforms(config: RepeatabilityConfig) -> list[RigidTransform]:
    rng = np.random.default_rng(config.transform_seed)
    return [sample_rigid_transform(rng) for _ in range(config.trials)]


def _trials(cloud: ColoredPointCloud, sources: Sequence[KeypointSet],
            grid: Sequence[DetectorParams], detector: Detector | None,
            config: RepeatabilityConfig, transforms: Sequence[RigidTransform]) -> list[list[float]]:
    """Each source's share of matched keypoints per trial, one list per source.

    Per trial, the copy is the cloud under the trial's rigid motion plus, when
    sigma > 0, Gaussian noise seeded with noise_seed + trial index. grid holds
    each source's parameters, equal but for the thresholds: the copy is
    prepared once, on its window and core, and each source's keypoints are
    selected from it and map back through the window. With an empty grid,
    detector finds the single source's keypoints on the whole copy. An empty
    window scores 0 without detection, and a source without keypoints
    scores 0.
    """
    epsilon, sigma = config.resolve(cloud.resolution)
    source_points = [cloud.xyz[keys.indices] for keys in sources]
    every_source = cloud.xyz[np.unique(np.concatenate([keys.indices for keys in sources]))]
    if grid:
        near, _ = cKDTree(every_source).query(cloud.xyz)
        radii = (epsilon + 2 * grid[0].radius, epsilon + grid[0].radius)
    ratios: list[list[float]] = [[] for _ in sources]
    for trial, transform in enumerate(transforms):
        clean = apply_rigid_transform(cloud, transform)
        moved = add_gaussian_noise(clean, sigma, config.noise_seed + trial) if sigma > 0 else clean
        if grid:
            in_window, in_core = _window(cloud, clean, moved, transform.apply(every_source),
                                         near, radii)
            window = np.flatnonzero(in_window)
        else:
            window = np.arange(len(moved) if len(every_source) else 0)
        if len(window) == 0:
            found = [window] * len(sources)
        elif grid:
            prepared = prepare(_subcloud(moved, window), grid[0], in_core[window])
            found = [window[select(prepared, params).indices] for params in grid]
        else:
            found = [detector(moved).indices]
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

    A detector with ``params`` (ced_detector's) prepares each copy on its
    window and core only, and its keypoints map back through the window's
    indices; the ratios are those of whole-copy detection (module
    docstring). An empty window scores 0. Other detectors get the whole copy.
    """
    if transforms is None:
        transforms = _sample_transforms(config)
    if len(transforms) == 0:
        raise InvalidParamsError("transforms must hold at least one transform")
    params = getattr(detector, "params", None)

    start = time.perf_counter()
    source_keys = detector(cloud)
    detect_time = time.perf_counter() - start

    total = len(source_keys)
    [ratios] = _trials(cloud, [source_keys], [] if params is None else [params], detector,
                       config, transforms)

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
    """Wall-clock seconds per detector run, sequentially, index build included.

    repetitions: an integer >= 3.
    """
    require_integer(repetitions, "repetitions", 3)
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

    Each copy is prepared on its window and core only (see
    evaluate_repeatability), taken around the union of every row's source
    keypoints so that one window serves every row; an empty window scores 0
    in every row.
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

    ratios = _trials(cloud, sources, grid, None, config, _sample_transforms(config))
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
