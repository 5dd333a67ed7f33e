"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from cedkit import (
    CloudFormat,
    ColoredPointCloud,
    DetectorParams,
    RepeatabilityConfig,
    RigidTransform,
    SceneKind,
    SceneSpec,
    apply_rigid_transform,
    build_index,
    ced_detector,
    detect,
    detect_random,
    evaluate_repeatability,
    generate_scene,
    measure_runtime,
    parse_cloud,
    random_detector,
    sample_rigid_transform,
    write_cloud,
)
from cedkit.detector import saliency_from_graph
from cedkit.evaluation import ablation_sweep
from oracles import (
    detect_brute_force,
    float32_valued_cloud,
    graph_neighbors,
    linear_scan_neighbors,
    random_colored_cloud,
    saliency_brute_force,
)

DATA_DIR = Path(__file__).parent / "data"

# Shared evaluation scene: a closed, checker-floored room of ~23k points.
# Sub-pitch jitter keeps every pairwise distance away from the radius
# boundary and makes saliency maxima unique, so neighborhoods are stable
# under rigid motion by construction.
ROOM_SPEC = SceneSpec(
    kind=SceneKind.ROOM_COMPOSITE,
    extent=0.8,
    pitch=0.01,
    tile=0.4,
    jitter=0.35,
    seed=3,
)
ROOM_PARAMS = DetectorParams(radius=0.052, geo_threshold=0.4, color_threshold=0.6)


@pytest.fixture(scope="module")
def room():
    return generate_scene(ROOM_SPEC)


def report(line: str) -> None:
    print(f"\n[ACCEPTANCE] {line}")


def test_criterion_1_algorithm_oracle_equivalence():
    """detect must equal the literal brute-force transcription exactly."""
    rng = np.random.default_rng(100)
    clouds = 0
    for trial in range(200):
        n = int(rng.integers(60, 501))
        cloud = random_colored_cloud(rng, n)
        params = DetectorParams(
            radius=float(rng.uniform(0.15, 0.3)),
            geo_threshold=float(rng.uniform(0.05, 0.5)),
            color_threshold=float(rng.uniform(0.05, 1.0)),
        )
        got = detect(cloud, params).indices
        expected = detect_brute_force(cloud, params)
        assert np.array_equal(got, expected), f"mismatch on trial {trial}"
        clouds += 1
    assert clouds >= 200
    report(f"criterion 1 PASS: detect == Algorithm-1 transcription on {clouds} random clouds")


def test_criterion_2_rigid_invariance(room):
    config = RepeatabilityConfig(sigma=0.0, epsilon=0.02, trials=10, transform_seed=11)
    result = evaluate_repeatability(room, ced_detector(ROOM_PARAMS), config)
    assert result.total_keypoints > 0
    assert result.relative_repeatability >= 0.95

    # field-level invariance under one sampled motion; pair traversal order
    # depends on the tree layout, so compare the neighbor sets canonically
    transform = sample_rigid_transform(np.random.default_rng(21))
    moved = apply_rigid_transform(room, transform)
    graph = build_index(room).neighbor_graph(ROOM_PARAMS.radius)
    moved_graph = build_index(moved).neighbor_graph(ROOM_PARAMS.radius)

    def canonical(pairs):
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    assert np.array_equal(
        canonical(graph.pairs), canonical(moved_graph.pairs)
    ), "neighborhoods flipped"
    geo, photo = saliency_from_graph(room, graph, ROOM_PARAMS)
    geo_moved, photo_moved = saliency_from_graph(moved, moved_graph, ROOM_PARAMS)
    geo_drift = np.abs(geo.values - geo_moved.values).max()
    photo_drift = np.abs(photo.values - photo_moved.values).max()
    assert geo_drift <= 1e-9
    assert photo_drift <= 1e-9
    report(
        "criterion 2 PASS: repeatability "
        f"{result.relative_repeatability:.3f} >= 0.95 over 10 motions; "
        f"field drift geo {geo_drift:.2e}, color {photo_drift:.2e} <= 1e-9"
    )


def test_criterion_3_noise_robustness_ordering(room):
    config = RepeatabilityConfig(
        sigma=0.005, epsilon=0.02, trials=10, transform_seed=11, noise_seed=500
    )
    ced = evaluate_repeatability(room, ced_detector(ROOM_PARAMS), config)
    matched_count = ced.total_keypoints
    random_baseline = evaluate_repeatability(
        room, random_detector(count=matched_count, seed=99), config
    )
    assert random_baseline.relative_repeatability < 0.05
    assert (
        ced.relative_repeatability
        >= 5.0 * random_baseline.relative_repeatability
    )
    report(
        "criterion 3 PASS: noisy CED repeatability "
        f"{ced.relative_repeatability:.3f} vs random "
        f"{random_baseline.relative_repeatability:.3f} "
        f"(x{ced.relative_repeatability / max(random_baseline.relative_repeatability, 1e-12):.1f}, "
        f"count {matched_count})"
    )


def test_criterion_4_ablation_monotonicity():
    rng = np.random.default_rng(7)
    fixtures = [
        generate_scene(
            SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01,
                      tile=0.2, jitter=0.35, seed=5)
        ),
        generate_scene(
            SceneSpec(kind=SceneKind.CHECKER_FLOOR, extent=0.5, pitch=0.01,
                      tile=0.1, jitter=0.3, seed=8)
        ),
        random_colored_cloud(rng, 800),
    ]
    config = RepeatabilityConfig(sigma=0.0, trials=1)
    geo_grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    color_grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    for fixture in fixtures:
        base = DetectorParams(radius=5.0 * fixture.resolution)
        rows = ablation_sweep(fixture, geo_grid, [0.1], base, config)
        counts = [row.keypoint_count for row in rows]
        assert counts == sorted(counts, reverse=True), counts
        rows = ablation_sweep(fixture, [0.2], color_grid, base, config)
        counts = [row.keypoint_count for row in rows]
        assert counts == sorted(counts, reverse=True), counts
    report("criterion 4 PASS: keypoint counts non-increasing in t_g and t_c on 3 fixtures")


def test_criterion_5_runtime_envelope():
    scene = generate_scene(
        SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=1.66, pitch=0.01,
                  tile=0.4, jitter=0.35, seed=3)
    )
    assert 90_000 <= len(scene) <= 110_000
    reference = json.loads((DATA_DIR / "runtime_reference.json").read_text())
    params = DetectorParams(radius=0.04)
    stats = measure_runtime(scene, ced_detector(params), repetitions=5)
    assert stats.mean_seconds <= 2.0
    assert stats.mean_seconds <= 3.0 * reference["mean_seconds"]
    report(
        f"criterion 5 PASS: {len(scene)} points, mean {stats.mean_seconds:.3f} s "
        f"<= 2.0 s and <= 3x reference {reference['mean_seconds']} s"
    )


def test_criterion_6_geometry_unit_properties():
    plane = generate_scene(SceneSpec(kind=SceneKind.PLANE, extent=0.6, pitch=0.01))
    plane_params = DetectorParams(radius=0.052)
    plane_graph = build_index(plane).neighbor_graph(plane_params.radius)
    geo, _ = saliency_from_graph(plane, plane_graph, plane_params)
    center = int(np.argmin(((plane.xyz - [0.3, 0.3, 0.0]) ** 2).sum(axis=1)))
    geo_oracle, _, _ = saliency_brute_force(plane, plane_params)
    assert geo.values[center] <= 0.02 * plane_params.radius
    assert geo_oracle[center] <= 0.02 * plane_params.radius

    corner = generate_scene(SceneSpec(kind=SceneKind.BOX_CORNER, extent=0.3, pitch=0.01))
    apex = 0
    assert np.all(corner.xyz[apex] == 0.0)
    # min_neighbors high enough that one-sided supports on the free outer
    # boundary of the finite sample are invalid rather than salient
    corner_params = DetectorParams(radius=0.052, min_neighbors=60)
    corner_graph = build_index(corner).neighbor_graph(corner_params.radius)
    corner_geo, _ = saliency_from_graph(corner, corner_graph, corner_params)
    oracle_geo, _, oracle_valid = saliency_brute_force(corner, corner_params)
    assert oracle_valid[apex]
    valid_indices = np.nonzero(oracle_valid)[0]
    assert valid_indices[np.argmax(oracle_geo[valid_indices])] == apex
    impl_valid = np.nonzero(corner_geo.valid)[0]
    assert impl_valid[np.argmax(corner_geo.values[impl_valid])] == apex
    assert abs(corner_geo.values[apex] - oracle_geo[apex]) < 1e-12
    report(
        f"criterion 6 PASS: plane-center saliency {geo.values[center]:.2e} <= 0.02r; "
        f"box apex is argmax ({corner_geo.values[apex]:.4f} m) among valid points"
    )


def test_criterion_7_io_and_index_exactness():
    rng = np.random.default_rng(77)
    cloud = float32_valued_cloud(rng, 1000)
    parsed = parse_cloud(write_cloud(cloud, CloudFormat.PLY_BINARY_LE), CloudFormat.PLY_BINARY_LE)
    assert np.array_equal(parsed.xyz, cloud.xyz)
    assert np.array_equal(parsed.rgb, cloud.rgb)

    xyz = rng.uniform(0, 1, size=(5000, 3))
    big = ColoredPointCloud(xyz, np.zeros_like(xyz), resolution=0.02)
    graph = build_index(big).neighbor_graph(0.06)
    queries = rng.choice(5000, size=100, replace=False)
    for q in queries:
        got = graph_neighbors(graph, int(q))
        expected = linear_scan_neighbors(xyz, int(q), 0.06)
        assert np.array_equal(got, expected)
    report("criterion 7 PASS: binary round-trip bit-exact; 100 graph neighborhoods == linear scan")


def test_criterion_8_repeatability_identity():
    rng = np.random.default_rng(31)
    cloud = random_colored_cloud(rng, 400)
    detectors = [
        ced_detector(DetectorParams(radius=0.25)),
        lambda c: detect_random(c, 25, seed=3),
    ]
    for detector in detectors:
        result = evaluate_repeatability(
            cloud,
            detector,
            RepeatabilityConfig(sigma=0.0, trials=1),
            transforms=[RigidTransform.identity()],
        )
        assert result.relative_repeatability == 1.0
    report("criterion 8 PASS: identity transform, zero noise -> repeatability exactly 1.0")
