from __future__ import annotations

from dataclasses import replace
from statistics import mean

import numpy as np
import pytest
from scipy.spatial import cKDTree

import cedkit.detector
import cedkit.evaluation

from cedkit import (
    ColoredPointCloud,
    DetectorParams,
    KeypointSet,
    RepeatabilityConfig,
    RigidTransform,
    SceneKind,
    SceneSpec,
    ablation_sweep,
    add_gaussian_noise,
    apply_rigid_transform,
    detect,
    evaluate_repeatability,
    generate_scene,
    measure_runtime,
    random_detector,
    sample_rigid_transform,
)
from cedkit.errors import InvalidParamsError
from cedkit.evaluation import (
    AblationRow,
    RepeatabilityReport,
    RuntimeStats,
    ablation_csv,
    count_matches,
    repeatability_csv,
    runtime_csv,
)
from oracles import exact_tie_pairs, random_colored_cloud, repeatable_count_brute_force


def room(extent=0.4, jitter=0.35, seed=3):
    return generate_scene(
        SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=extent, pitch=0.01, jitter=jitter, seed=seed)
    )


class TestRepeatabilityConfig:
    def test_defaults_follow_resolution_ratios(self):
        config = RepeatabilityConfig()
        epsilon, sigma = config.resolve(resolution=0.01)
        assert epsilon == 0.02
        assert sigma == 0.005

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            RepeatabilityConfig(epsilon=0.0)
        with pytest.raises(InvalidParamsError):
            RepeatabilityConfig(sigma=-1.0)
        with pytest.raises(InvalidParamsError):
            RepeatabilityConfig(trials=0)
        for seed in ("transform_seed", "noise_seed"):
            for value in (-1, 1.5, 2.0, "3", None, True):
                with pytest.raises(InvalidParamsError, match="non-negative integer"):
                    RepeatabilityConfig(**{seed: value})
            RepeatabilityConfig(**{seed: np.int64(3)})

    @pytest.mark.parametrize("value", [1.5, 2.0, "3", None, True])
    def test_trials_must_be_an_integer(self, value):
        with pytest.raises(InvalidParamsError, match="trials must be an integer >= 1"):
            RepeatabilityConfig(trials=value)
        RepeatabilityConfig(trials=np.int64(3))

    @pytest.mark.parametrize("field", ["epsilon", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidParamsError, match="finite"):
            RepeatabilityConfig(**{field: value})


class TestEvaluateRepeatability:
    def test_identity_transform_gives_exactly_one(self, rng):
        cloud = random_colored_cloud(rng, 300)
        report = evaluate_repeatability(
            cloud,
            DetectorParams(radius=0.25),
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[RigidTransform.identity()],
        )
        assert report.relative_repeatability == 1.0
        assert report.repeatable_keypoints == report.total_keypoints
        assert not report.empty_keypoint_set

    def test_emptied_target_set_gives_zero(self, rng):
        cloud = random_colored_cloud(rng, 100)
        calls = []

        def one_then_none(c):
            calls.append(c)
            indices = [0] if len(calls) == 1 else []
            return KeypointSet(np.array(indices, dtype=np.int64))

        report = evaluate_repeatability(
            cloud,
            one_then_none,
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[RigidTransform(np.eye(3), [1.0, 0.0, 0.0])],
        )
        assert report.relative_repeatability == 0.0
        assert report.total_keypoints == 1

    def test_no_transforms_rejected(self, rng):
        cloud = random_colored_cloud(rng, 100)
        with pytest.raises(InvalidParamsError, match="at least one transform"):
            evaluate_repeatability(cloud, DetectorParams(radius=0.25),
                                   RepeatabilityConfig(sigma=0.0), transforms=[])

    def test_empty_source_flagged(self, rng):
        cloud = random_colored_cloud(rng, 100)

        def nothing(c):
            return KeypointSet(np.array([], dtype=np.int64))

        report = evaluate_repeatability(cloud, nothing, RepeatabilityConfig(trials=2))
        assert report.empty_keypoint_set
        assert report.relative_repeatability == 0.0

    def test_matches_brute_force_matching(self):
        cloud = room()
        params = DetectorParams(radius=0.052, geo_threshold=0.4, color_threshold=0.6)
        transform = sample_rigid_transform(np.random.default_rng(17))
        report = evaluate_repeatability(
            cloud,
            params,
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[transform],
        )
        source = detect(cloud, params)
        moved = apply_rigid_transform(cloud, transform)
        target = detect(moved, params)
        expected = repeatable_count_brute_force(
            transform.apply(cloud.xyz[source.indices]),
            moved.xyz[target.indices],
            epsilon=0.02,
        )
        assert report.per_trial[0] == expected / len(source)

    def test_count_matches_strictness(self):
        source = np.array([[0.0, 0.0, 0.0]])
        target = np.array([[0.02, 0.0, 0.0]])
        assert count_matches(source, target, epsilon=0.02) == 0
        assert count_matches(source, target, epsilon=0.020001) == 1

    def test_count_matches_equals_brute_force(self, rng):
        epsilon = 0.05
        # offsets of epsilon and one ulp either side put pairs on the boundary
        edge = np.array([epsilon, np.nextafter(epsilon, 0.0), np.nextafter(epsilon, 1.0)])
        for _ in range(20):
            source = rng.uniform(0, 0.5, size=(int(rng.integers(1, 60)), 3))
            target = rng.uniform(0, 0.5, size=(int(rng.integers(1, 60)), 3))
            k = min(len(source), len(target)) // 2
            target[:k] = source[:k]
            target[:k, 0] += edge[np.arange(k) % 3]
            assert count_matches(source, target, epsilon) == repeatable_count_brute_force(
                source, target, epsilon
            )

    def test_count_matches_excludes_exact_ties(self, rng):
        # epsilon * epsilon equals the definition's d2, summed x, y, z
        for source, target, epsilon in exact_tie_pairs(rng, 8):
            source, target = source[None], target[None]
            assert repeatable_count_brute_force(source, target, epsilon) == 0
            assert count_matches(source, target, epsilon) == 0

    def test_count_matches_empty_sides(self):
        points = np.zeros((2, 3))
        assert count_matches(points[:0], points, 0.1) == 0
        assert count_matches(points, points[:0], 0.1) == 0

    def test_noise_seeds_fresh_per_trial(self, rng):
        cloud = random_colored_cloud(rng, 200)
        seen = []

        def spy(c):
            seen.append(c.xyz.copy())
            return KeypointSet(np.arange(5))

        evaluate_repeatability(
            cloud,
            spy,
            RepeatabilityConfig(sigma=0.01, trials=2),
            transforms=[RigidTransform.identity(), RigidTransform.identity()],
        )
        # first call is the source; the two noisy copies must differ
        assert not np.array_equal(seen[1], seen[2])


def whole_copy_ratios(cloud, params, config, transforms):
    """Per-trial ratios from detecting every whole moved copy: the definition."""
    epsilon, sigma = config.resolve(cloud.resolution)
    source = cloud.xyz[detect(cloud, params).indices]
    ratios = []
    for trial, transform in enumerate(transforms):
        moved = apply_rigid_transform(cloud, transform)
        moved = add_gaussian_noise(moved, sigma, config.noise_seed + trial)
        target = moved.xyz[detect(moved, params).indices]
        ratios.append(count_matches(transform.apply(source), target, epsilon) / len(source))
    return ratios


@pytest.fixture
def detected_sizes(monkeypatch):
    """Point counts of the clouds the CED detector runs on, in call order.

    The source is detected through detect, each copy through prepare.
    """
    sizes = []
    detect, prepare = cedkit.evaluation.detect, cedkit.evaluation.prepare

    def counting_detect(cloud, params):
        sizes.append(len(cloud))
        return detect(cloud, params)

    def counting_prepare(cloud, params, core=None):
        sizes.append(len(cloud))
        return prepare(cloud, params, core)

    monkeypatch.setattr(cedkit.evaluation, "detect", counting_detect)
    monkeypatch.setattr(cedkit.evaluation, "prepare", counting_prepare)
    return sizes


class TestCopyWindow:
    """Copies are detected only within epsilon + 2r of the moved source keypoints."""

    # (extent, epsilon, whether the window holds the whole copy)
    @pytest.mark.parametrize("extent, epsilon, whole", [(0.3, 0.02, False), (0.8, 0.02, False),
                                                        (0.3, 0.5, True)])
    @pytest.mark.parametrize("thresholds", [(0.4, 0.6), (0.2, 0.1)])
    def test_per_trial_equals_whole_copy_detection(self, extent, epsilon, whole, thresholds,
                                                   detected_sizes):
        cloud = room(extent=extent)
        params = DetectorParams(radius=0.052, geo_threshold=thresholds[0],
                                color_threshold=thresholds[1])
        config = RepeatabilityConfig(epsilon=epsilon, sigma=0.005, trials=3, noise_seed=7)
        rng = np.random.default_rng(11)
        transforms = [sample_rigid_transform(rng) for _ in range(config.trials)]
        report = evaluate_repeatability(cloud, params, config, transforms)
        assert report.total_keypoints > 0
        assert list(report.per_trial) == whole_copy_ratios(cloud, params, config, transforms)
        assert detected_sizes[0] == len(cloud)
        copies = detected_sizes[1:]
        assert len(copies) == config.trials
        assert all(size == len(cloud) if whole else size < len(cloud) for size in copies)

    def test_copies_are_prepared_with_a_core(self, monkeypatch):
        cores = []
        prepare = cedkit.evaluation.prepare

        def recording_prepare(cloud, params, core=None):
            cores.append((len(cloud), core))
            return prepare(cloud, params, core)

        monkeypatch.setattr(cedkit.evaluation, "prepare", recording_prepare)
        params = DetectorParams(radius=0.052, geo_threshold=0.4, color_threshold=0.6)
        config = RepeatabilityConfig(epsilon=0.02, sigma=0.005, trials=3)
        evaluate_repeatability(room(extent=0.8), params, config)
        assert len(cores) == config.trials
        assert all(core.shape == (size,) and 0 < np.count_nonzero(core) < size
                   for size, core in cores)

    def test_sweep_rows_equal_whole_copy_detection(self):
        cloud = room(extent=0.8)
        base = DetectorParams(radius=0.052)
        config = RepeatabilityConfig(epsilon=0.02, sigma=0.005, trials=3, transform_seed=6)
        tg, tc = [0.2, 0.4], [0.1, 0.6]
        rows = ablation_sweep(cloud, tg, tc, base, config)
        transforms = cedkit.evaluation._sample_transforms(config)
        for row in rows:
            params = replace(base, geo_threshold=row.geo_threshold,
                             color_threshold=row.color_threshold)
            assert row.repeatability == mean(whole_copy_ratios(cloud, params, config, transforms))

    def test_random_baseline_sees_every_point(self):
        cloud = room(extent=0.3)
        sizes = []
        inner = random_detector(count=20, seed=4)

        def counting(c):
            sizes.append(len(c))
            return inner(c)

        evaluate_repeatability(cloud, counting, RepeatabilityConfig(sigma=0.005, trials=3))
        assert sizes == [len(cloud)] * 4

    def test_empty_window_gives_zero_and_builds_no_index(self, monkeypatch):
        # noise far above epsilon + 2r scatters every copy point out of reach
        cloud = room(extent=0.3)
        params = DetectorParams(radius=0.052)
        built = []
        build_index = cedkit.detector.build_index

        def counting_build(c):
            built.append(len(c))
            return build_index(c)

        monkeypatch.setattr(cedkit.detector, "build_index", counting_build)
        config = RepeatabilityConfig(epsilon=0.02, sigma=100.0, trials=3)
        report = evaluate_repeatability(cloud, params, config)
        assert report.total_keypoints > 0
        assert report.per_trial == (0.0, 0.0, 0.0)
        rows = ablation_sweep(cloud, [0.1, 0.2], [0.1], params, config)
        assert [row.repeatability for row in rows] == [0.0, 0.0]
        assert all(row.keypoint_count for row in rows)
        assert built == [len(cloud), len(cloud)]


class TestWindowFromSourceFrame:
    """Window and core found from the source frame equal the query over every copy point."""

    DISTANCES = (0.02 + 2 * 0.052, 0.02 + 0.052)

    def cloud_with_boundary_points(self, rng, offset):
        # points a few 2^-45 of a distance inside and outside each distance of
        # a keypoint: at an offset of 1e6 m rounding alone decides their side
        cloud = room(extent=0.3)
        keys = np.arange(0, len(cloud), 150)
        directions = rng.normal(size=(len(self.DISTANCES), 9, 3))
        directions /= np.linalg.norm(directions, axis=2, keepdims=True)
        factors = 1 + np.arange(-4, 5)[:, None] * 2.0 ** -45
        boundary = np.concatenate([
            cloud.xyz[keys[k]] + distance * cedkit.evaluation._CANDIDATE_SLACK * factors * ray
            for k, (distance, ray) in enumerate(zip(self.DISTANCES, directions))
        ])
        xyz = np.vstack([cloud.xyz, boundary]) + offset
        return ColoredPointCloud(xyz, np.zeros_like(xyz)), keys

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    @pytest.mark.parametrize("sigma", [0.0, 0.005, 100.0])
    def test_masks_equal_the_query(self, rng, offset, sigma):
        cloud, keys = self.cloud_with_boundary_points(rng, offset)
        near, _ = cKDTree(cloud.xyz[keys]).query(cloud.xyz)
        for trial in range(3):
            transform = sample_rigid_transform(rng)
            clean = apply_rigid_transform(cloud, transform)
            moved = add_gaussian_noise(clean, sigma, trial)
            centers = transform.apply(cloud.xyz[keys])
            masks = cedkit.evaluation._window(cloud, clean, moved, centers, near, self.DISTANCES)
            for mask, distance in zip(masks, self.DISTANCES):
                bound = distance * cedkit.evaluation._CANDIDATE_SLACK
                nearest, _ = cKDTree(centers).query(moved.xyz, distance_upper_bound=bound)
                assert np.array_equal(mask, nearest < np.inf)
                assert sigma == 100.0 or 0 < np.count_nonzero(mask) < len(cloud)


class TestDetectorArgument:
    @pytest.mark.parametrize("evaluate", [evaluate_repeatability, measure_runtime])
    @pytest.mark.parametrize("detector", ["ced", None])
    def test_neither_params_nor_callable_rejected(self, rng, evaluate, detector):
        cloud = random_colored_cloud(rng, 50)
        with pytest.raises(InvalidParamsError, match="DetectorParams or a callable"):
            evaluate(cloud, detector)


class TestMeasureRuntime:
    def test_small_cloud_is_fast(self, rng):
        cloud = random_colored_cloud(rng, 10)
        stats = measure_runtime(cloud, DetectorParams(radius=0.3), repetitions=3)
        assert all(s < 0.01 for s in stats.samples)

    def test_sample_count(self, rng):
        cloud = random_colored_cloud(rng, 50)
        stats = measure_runtime(cloud, DetectorParams(radius=0.3), repetitions=5)
        assert len(stats.samples) == 5
        assert stats.min_seconds <= stats.median_seconds
        assert stats.min_seconds <= stats.mean_seconds

    def test_repetition_floor(self, rng):
        cloud = random_colored_cloud(rng, 10)
        with pytest.raises(InvalidParamsError):
            measure_runtime(cloud, DetectorParams(radius=0.3), repetitions=2)

    @pytest.mark.parametrize("value", [3.5, 4.0, "3", None, True])
    def test_repetitions_must_be_an_integer(self, rng, value):
        cloud = random_colored_cloud(rng, 10)
        with pytest.raises(InvalidParamsError, match="repetitions must be an integer >= 3"):
            measure_runtime(cloud, DetectorParams(radius=0.3), repetitions=value)


class TestAblationSweep:
    def test_counts_non_increasing_in_each_threshold(self, rng):
        cloud = random_colored_cloud(rng, 400)
        base = DetectorParams(radius=0.25)
        config = RepeatabilityConfig(sigma=0.0, trials=1)
        rows_g = ablation_sweep(cloud, [0.1, 0.2, 0.3, 0.4, 0.5], [0.1], base, config)
        counts = [row.keypoint_count for row in rows_g]
        assert counts == sorted(counts, reverse=True)
        rows_c = ablation_sweep(cloud, [0.2], [0.1, 0.2, 0.3, 0.4, 0.5], base, config)
        counts = [row.keypoint_count for row in rows_c]
        assert counts == sorted(counts, reverse=True)

    def test_single_value_row_matches_direct_call(self, rng):
        cloud = random_colored_cloud(rng, 300)
        base = DetectorParams(radius=0.25)
        config = RepeatabilityConfig(sigma=0.0, trials=2, transform_seed=5)
        [row] = ablation_sweep(cloud, [0.3], [0.2], base, config)
        params = DetectorParams(radius=0.25, geo_threshold=0.3, color_threshold=0.2)
        report = evaluate_repeatability(cloud, params, config)
        assert row.keypoint_count == report.total_keypoints
        assert row.repeatability == report.relative_repeatability

    def test_noisy_rows_match_direct_calls(self):
        cloud = room(extent=0.3)
        base = DetectorParams(radius=0.052)
        config = RepeatabilityConfig(epsilon=0.02, sigma=0.004, trials=2, transform_seed=4)
        rows = ablation_sweep(cloud, [0.1, 0.4, 0.9], [0.0, 0.6, 2.5], base, config)
        assert len({row.keypoint_count for row in rows}) > 2
        for row in rows:
            params = replace(base, geo_threshold=row.geo_threshold, color_threshold=row.color_threshold)
            report = evaluate_repeatability(cloud, params, config)
            assert row.keypoint_count == report.total_keypoints
            assert row.repeatability == report.relative_repeatability

    def test_prepares_each_cloud_once(self, rng, monkeypatch):
        calls = []
        prepare = cedkit.evaluation.prepare

        def counting_prepare(cloud, params, core=None):
            calls.append(len(cloud))
            return prepare(cloud, params, core)

        monkeypatch.setattr(cedkit.evaluation, "prepare", counting_prepare)
        cloud = random_colored_cloud(rng, 300)
        config = RepeatabilityConfig(sigma=0.01, trials=3)
        rows = ablation_sweep(cloud, [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3], DetectorParams(radius=0.25), config)
        assert len(rows) == 12
        assert any(row.keypoint_count for row in rows)
        assert len(calls) == 1 + config.trials

    def test_empty_lists_rejected(self, rng):
        cloud = random_colored_cloud(rng, 50)
        with pytest.raises(InvalidParamsError):
            ablation_sweep(cloud, [], [0.1], DetectorParams(radius=0.25))

    def test_seeded_results_reproducible(self, rng):
        cloud = random_colored_cloud(rng, 300)
        base = DetectorParams(radius=0.25)
        config = RepeatabilityConfig(sigma=0.0, trials=2, transform_seed=9)
        a = ablation_sweep(cloud, [0.2, 0.4], [0.1], base, config)
        b = ablation_sweep(cloud, [0.2, 0.4], [0.1], base, config)
        assert [(r.keypoint_count, r.repeatability) for r in a] == [
            (r.keypoint_count, r.repeatability) for r in b
        ]


def reference_rows(rows, kinds):
    """A stored copy of report rows as formatted one value at a time: a "d"
    column (a count) as an integer, a "g" column (a measure) with '.9g'."""
    return "".join(
        ",".join(f"{value}" if kind == "d" else f"{value:.9g}" for value, kind in zip(row, kinds))
        + "\n" for row in rows)


class TestCsvRenderers:
    def test_repeatability_csv_equals_per_value_reference(self, rng):
        cloud = random_colored_cloud(rng, 200)
        measured = evaluate_repeatability(
            cloud, DetectorParams(radius=0.25),
            RepeatabilityConfig(sigma=0.01, trials=3))
        perfect = RepeatabilityReport(7, 7.0, 1.0, 0.0123456789012, 1)
        empty = RepeatabilityReport(0, 0.0, 0, 2.5e-5, 1, empty_keypoint_set=True)
        for report in (measured, perfect, empty):
            row = (report.total_keypoints, report.repeatable_keypoints,
                   report.relative_repeatability, report.detect_time_seconds)
            assert repeatability_csv(report) == (
                "total_keypoints,repeatable_keypoints,relative_repeatability,detect_time_seconds\n"
                + reference_rows([row], "dggg"))
        assert repeatability_csv(perfect).splitlines()[1] == "7,7,1,0.0123456789"
        assert repeatability_csv(empty).splitlines()[1] == "0,0,0,2.5e-05"

    def test_runtime_csv_equals_per_value_reference(self, rng):
        cloud = random_colored_cloud(rng, 30)
        measured = measure_runtime(cloud, DetectorParams(radius=0.3), 3)
        thirds = RuntimeStats(1 / 3, 0.25, 1e-7, (1 / 3, 0.25, 1e-7, 0.75))
        for stats in (measured, thirds):
            row = (stats.mean_seconds, stats.median_seconds, stats.min_seconds, len(stats.samples))
            assert runtime_csv(stats) == (
                "mean_seconds,median_seconds,min_seconds,repetitions\n"
                + reference_rows([row], "gggd"))
        assert runtime_csv(thirds).splitlines()[1] == "0.333333333,0.25,1e-07,4"

    def test_ablation_csv_equals_per_value_reference(self, rng):
        cloud = random_colored_cloud(rng, 100)
        config = RepeatabilityConfig(sigma=0.0, trials=2)
        swept = ablation_sweep(cloud, [0.2, 0.4], [0.1, 0.3], DetectorParams(radius=0.3), config)
        # thresholds held as Python ints print as the floats they stand for
        integral = [AblationRow(0, 1, 5, 0.5, 0.125), AblationRow(1, 3, 0, 0.0, 2.0)]
        for rows in (swept, integral, []):
            table = [(row.geo_threshold, row.color_threshold, row.keypoint_count,
                      row.repeatability, row.runtime_seconds) for row in rows]
            assert ablation_csv(rows, config) == (
                "# sigma=0.0 epsilon=default trials=2\n"
                "t_g,t_c,keypoint_count,repeatability,runtime_seconds\n"
                + reference_rows(table, "ggdgg"))
        assert ablation_csv(integral, config).splitlines()[2:] == ["0,1,5,0.5,0.125", "1,3,0,0,2"]

    def test_repeatability_csv(self, rng):
        cloud = random_colored_cloud(rng, 200)
        report = evaluate_repeatability(
            cloud,
            DetectorParams(radius=0.25),
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[RigidTransform.identity()],
        )
        text = repeatability_csv(report)
        lines = text.splitlines()
        assert lines[0].startswith("total_keypoints,")
        assert len(lines) == 2
        assert text.endswith("\n")
        assert "\r" not in text

    def test_runtime_csv(self, rng):
        cloud = random_colored_cloud(rng, 30)
        stats = measure_runtime(cloud, DetectorParams(radius=0.3), 3)
        lines = runtime_csv(stats).splitlines()
        assert lines[0] == "mean_seconds,median_seconds,min_seconds,repetitions"
        assert lines[1].endswith(",3")

    def test_ablation_csv_records_noise_choice(self, rng):
        cloud = random_colored_cloud(rng, 100)
        config = RepeatabilityConfig(sigma=0.0, trials=1)
        rows = ablation_sweep(cloud, [0.2], [0.1], DetectorParams(radius=0.3), config)
        text = ablation_csv(rows, config)
        lines = text.splitlines()
        assert lines[0].startswith("# sigma=0.0")
        assert lines[1] == "t_g,t_c,keypoint_count,repeatability,runtime_seconds"
        assert len(lines) == 3


class TestRandomDetectorBaseline:
    def test_low_repeatability_on_room(self):
        # count chosen to match what CED extracts on this scene
        cloud = room(extent=0.8)
        detector = random_detector(count=40, seed=4)
        report = evaluate_repeatability(
            cloud, detector, RepeatabilityConfig(sigma=0.0, trials=5, transform_seed=2)
        )
        assert report.relative_repeatability < 0.05

    def test_fresh_selection_per_call(self, rng):
        cloud = random_colored_cloud(rng, 500)
        detector = random_detector(count=50, seed=4)
        first = detector(cloud)
        second = detector(cloud)
        assert not np.array_equal(first.indices, second.indices)
        # a new factory with the same seed replays the same sequence
        replay = random_detector(count=50, seed=4)
        assert np.array_equal(replay(cloud).indices, first.indices)
