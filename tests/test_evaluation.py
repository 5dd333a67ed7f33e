from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import cedkit.evaluation

from cedkit import (
    DetectorParams,
    KeypointSet,
    RepeatabilityConfig,
    RigidTransform,
    SceneKind,
    SceneSpec,
    ablation_sweep,
    apply_rigid_transform,
    ced_detector,
    detect,
    evaluate_repeatability,
    generate_scene,
    measure_runtime,
    random_detector,
    sample_rigid_transform,
)
from cedkit.errors import InvalidParamsError
from cedkit.evaluation import ablation_csv, count_matches, repeatability_csv, runtime_csv
from oracles import random_colored_cloud, repeatable_count_brute_force


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


class TestEvaluateRepeatability:
    def test_identity_transform_gives_exactly_one(self, rng):
        cloud = random_colored_cloud(rng, 300)
        report = evaluate_repeatability(
            cloud,
            ced_detector(DetectorParams(radius=0.25)),
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
            return KeypointSet(np.array(indices, dtype=np.int64), params=None)

        report = evaluate_repeatability(
            cloud,
            one_then_none,
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[RigidTransform(np.eye(3), [1.0, 0.0, 0.0])],
        )
        assert report.relative_repeatability == 0.0
        assert report.total_keypoints == 1

    def test_empty_source_flagged(self, rng):
        cloud = random_colored_cloud(rng, 100)

        def nothing(c):
            return KeypointSet(np.array([], dtype=np.int64), params=None)

        report = evaluate_repeatability(cloud, nothing, RepeatabilityConfig(trials=2))
        assert report.empty_keypoint_set
        assert report.relative_repeatability == 0.0

    def test_matches_brute_force_matching(self):
        cloud = room()
        params = DetectorParams(radius=0.052, geo_threshold=0.4, color_threshold=0.6)
        detector = ced_detector(params)
        transform = sample_rigid_transform(np.random.default_rng(17))
        report = evaluate_repeatability(
            cloud,
            detector,
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

    def test_count_matches_empty_sides(self):
        points = np.zeros((2, 3))
        assert count_matches(points[:0], points, 0.1) == 0
        assert count_matches(points, points[:0], 0.1) == 0

    def test_noise_seeds_fresh_per_trial(self, rng):
        cloud = random_colored_cloud(rng, 200)
        seen = []

        def spy(c):
            seen.append(c.xyz.copy())
            return KeypointSet(np.arange(5), params=None)

        evaluate_repeatability(
            cloud,
            spy,
            RepeatabilityConfig(sigma=0.01, trials=2),
            transforms=[RigidTransform.identity(), RigidTransform.identity()],
        )
        # first call is the source; the two noisy copies must differ
        assert not np.array_equal(seen[1], seen[2])


class TestMeasureRuntime:
    def test_small_cloud_is_fast(self, rng):
        cloud = random_colored_cloud(rng, 10)
        stats = measure_runtime(cloud, ced_detector(DetectorParams(radius=0.3)), repetitions=3)
        assert all(s < 0.01 for s in stats.samples)

    def test_sample_count(self, rng):
        cloud = random_colored_cloud(rng, 50)
        stats = measure_runtime(cloud, ced_detector(DetectorParams(radius=0.3)), repetitions=5)
        assert len(stats.samples) == 5
        assert stats.min_seconds <= stats.median_seconds
        assert stats.min_seconds <= stats.mean_seconds

    def test_repetition_floor(self, rng):
        cloud = random_colored_cloud(rng, 10)
        with pytest.raises(InvalidParamsError):
            measure_runtime(cloud, ced_detector(DetectorParams(radius=0.3)), repetitions=2)


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
        report = evaluate_repeatability(cloud, ced_detector(params), config)
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
            report = evaluate_repeatability(cloud, ced_detector(params), config)
            assert row.keypoint_count == report.total_keypoints
            assert row.repeatability == report.relative_repeatability

    def test_prepares_each_cloud_once(self, rng, monkeypatch):
        calls = []
        prepare = cedkit.evaluation.prepare

        def counting_prepare(cloud, params):
            calls.append(len(cloud))
            return prepare(cloud, params)

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


class TestCsvRenderers:
    def test_repeatability_csv(self, rng):
        cloud = random_colored_cloud(rng, 200)
        report = evaluate_repeatability(
            cloud,
            ced_detector(DetectorParams(radius=0.25)),
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
        stats = measure_runtime(cloud, ced_detector(DetectorParams(radius=0.3)), 3)
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
