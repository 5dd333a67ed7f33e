from __future__ import annotations

import logging

import numpy as np
import pytest

from dataclasses import fields as dataclass_fields, replace

from cedkit import (
    CloudFormat,
    ColoredPointCloud,
    DetectorMode,
    DetectorParams,
    PreparedCloud,
    SaliencyField,
    SceneKind,
    SceneSpec,
    apply_rigid_transform,
    build_index,
    detect,
    detect_with_fields,
    export_keypoints_csv,
    export_keypoints_ply,
    generate_scene,
    local_maxima,
    multimodal_nms,
    parse_cloud,
    prepare,
    sample_rigid_transform,
    select,
)
from cedkit.errors import (
    InvalidParamsError,
    MisalignedFieldsError,
    NoColorError,
)
from cedkit.index import NeighborGraph
from oracles import (
    compensated_mean,
    detect_brute_force,
    graph_neighbors,
    linear_scan_neighbors,
    nms_transcription,
    random_colored_cloud,
    saliency_brute_force,
)
from cedkit.detector import saliency_from_graph

# Apex saliency of the 0.2 m box corner at pitch 0.01 m, radius 0.05 m,
# frozen from the brute-force centroid oracle.
CORNER_APEX_SALIENCY = 0.024487614865628962


def exact_pitch_plane(n_side=41, pitch=0.015625, color=(0.5, 0.5, 0.5)):
    """Grid plane with a power-of-two pitch: every centroid sum is exact."""
    side = np.arange(n_side) * pitch
    gx, gy = np.meshgrid(side, side, indexing="ij")
    xyz = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    rgb = np.tile(np.asarray(color, dtype=float), (xyz.shape[0], 1))
    return xyz, rgb


class TestDetectorParams:
    def test_threshold_ranges_enforced(self):
        with pytest.raises(InvalidParamsError):
            DetectorParams(radius=0.1, geo_threshold=1.5)
        with pytest.raises(InvalidParamsError):
            DetectorParams(radius=0.1, geo_threshold=-0.1)
        with pytest.raises(InvalidParamsError):
            DetectorParams(radius=0.1, color_threshold=3.5)
        with pytest.raises(InvalidParamsError):
            DetectorParams(radius=0.1, min_neighbors=0)
        with pytest.raises(InvalidParamsError):
            DetectorParams(radius=0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(InvalidParamsError, match="finite"):
            DetectorParams(radius=radius)

    def test_for_cloud_defaults(self, small_cloud):
        params = DetectorParams.for_cloud(small_cloud)
        assert params.radius == 5.0 * small_cloud.resolution
        assert params.mode is DetectorMode.CED
        assert params.min_neighbors == 5


class TestCentroids:
    """The centroid definitions, read through the saliency fields.

    With min_neighbors=1 every point is valid, so each field value is the
    distance from the point to its neighborhood's centroid: geometric
    saliency is the L2 norm of that offset, color saliency its L1 norm.
    """

    ALL = DetectorParams(radius=10.0, min_neighbors=1)

    def fields(self, cloud, params=ALL):
        graph = build_index(cloud).neighbor_graph(params.radius)
        return saliency_from_graph(cloud, graph, params)

    def test_single_neighbor_gives_zero_offset(self, small_cloud):
        # below the closest spacing every neighborhood is the point alone
        geo, photo = self.fields(small_cloud, DetectorParams(radius=1e-6, min_neighbors=1))
        assert geo.valid.all()
        assert not geo.values.any() and not photo.values.any()

    def test_mean_of_two(self):
        cloud = ColoredPointCloud(
            [[0, 0, 0], [0.04, 0, 0]], [[0, 0, 0], [0, 0, 0]]
        )
        geo, _ = self.fields(cloud)
        assert np.allclose(geo.values, [0.02, 0.02])

    def test_matches_compensated_sum(self, rng):
        cloud = random_colored_cloud(rng, 200)
        geo, photo = self.fields(cloud)
        geo_offsets = cloud.xyz - compensated_mean(cloud.xyz)
        color_offsets = cloud.rgb - compensated_mean(cloud.rgb)
        assert np.abs(geo.values - np.sqrt((geo_offsets**2).sum(axis=1))).max() < 1e-12
        assert np.abs(photo.values - np.abs(color_offsets).sum(axis=1)).max() < 1e-12

    def test_constant_white_neighborhood(self):
        rgb = np.ones((5, 3))
        cloud = ColoredPointCloud(np.zeros((5, 3)), rgb)
        _, photo = self.fields(cloud)
        assert np.array_equal(photo.values, np.zeros(5))

    def test_half_black_half_white(self):
        # every channel sits 0.5 from the centroid (0.5, 0.5, 0.5): L1 1.5
        rgb = np.vstack([np.zeros((4, 3)), np.ones((4, 3))])
        cloud = ColoredPointCloud(np.zeros((8, 3)), rgb)
        _, photo = self.fields(cloud)
        assert np.allclose(photo.values, np.full(8, 1.5))

    def test_isolated_point_is_its_own_neighborhood(self):
        # a neighborhood is never empty: it always holds its own point
        cloud = ColoredPointCloud([[0, 0, 0], [5, 5, 5]], [[1, 0, 0], [0, 1, 0]])
        graph = build_index(cloud).neighbor_graph(0.1)
        assert (np.bincount(graph.pairs.ravel(), minlength=2) + 1).tolist() == [1, 1]
        geo, photo = self.fields(cloud, DetectorParams(radius=0.1, min_neighbors=1))
        assert geo.valid.all()
        assert geo.values.tolist() == [0.0, 0.0]
        assert photo.values.tolist() == [0.0, 0.0]

    def test_colorless_cloud_rejected(self):
        cloud = ColoredPointCloud([[0, 0, 0]], [[0, 0, 0]], has_color=False)
        with pytest.raises(NoColorError):
            prepare(cloud, self.ALL)


class TestComputeSaliency:
    def test_planar_disk_center_is_flat(self):
        scene = generate_scene(SceneSpec(kind=SceneKind.PLANE, extent=0.6, pitch=0.01))
        params = DetectorParams(radius=0.052)
        graph = build_index(scene).neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(scene, graph, params)
        center = np.argmin(((scene.xyz - [0.3, 0.3, 0.0]) ** 2).sum(axis=1))
        assert geo.values[center] <= 0.02 * params.radius
        assert photo.values[center] == 0.0

    def test_box_corner_apex_regression(self):
        scene = generate_scene(SceneSpec(kind=SceneKind.BOX_CORNER, extent=0.2, pitch=0.01))
        params = DetectorParams(radius=0.05)
        geo_oracle, _, _ = saliency_brute_force(scene, params)
        graph = build_index(scene).neighbor_graph(params.radius)
        geo, _ = saliency_from_graph(scene, graph, params)
        assert abs(geo.values[0] - geo_oracle[0]) < 1e-12
        assert abs(geo_oracle[0] - CORNER_APEX_SALIENCY) < 1e-9

    def test_white_query_among_black(self):
        # 90% black neighborhood around a white query: L1 saliency 3 * 0.9
        xyz = np.vstack([[0, 0, 0], np.random.default_rng(3).uniform(-0.01, 0.01, (9, 3))])
        rgb = np.vstack([[1, 1, 1], np.zeros((9, 3))])
        cloud = ColoredPointCloud(xyz, rgb)
        graph = build_index(cloud).neighbor_graph(0.1)
        _, photo = saliency_from_graph(cloud, graph, DetectorParams(radius=0.1))
        assert abs(photo.values[0] - 2.7) < 1e-12

    def test_matches_brute_force(self, rng):
        cloud = random_colored_cloud(rng, 400)
        params = DetectorParams(radius=0.25)
        geo_oracle, color_oracle, valid_oracle = saliency_brute_force(cloud, params)
        graph = build_index(cloud).neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        assert np.array_equal(geo.valid, valid_oracle)
        assert np.abs(geo.values - geo_oracle).max() < 1e-12
        assert np.abs(photo.values - color_oracle).max() < 1e-12

    def test_invalid_points_zeroed(self):
        # two far-apart clusters; singletons never reach min_neighbors
        xyz = np.vstack([np.random.default_rng(0).uniform(0, 0.02, (8, 3)), [[5, 5, 5]]])
        cloud = ColoredPointCloud(xyz, np.zeros((9, 3)) + 0.5)
        graph = build_index(cloud).neighbor_graph(0.1)
        geo, photo = saliency_from_graph(cloud, graph, DetectorParams(radius=0.1))
        assert not geo.valid[8]
        assert geo.values[8] == 0.0
        assert photo.values[8] == 0.0

    def test_bounds(self, rng):
        cloud = random_colored_cloud(rng, 500)
        params = DetectorParams(radius=0.3)
        graph = build_index(cloud).neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        assert np.all(geo.values >= 0)
        assert np.all(geo.values[geo.valid] < params.radius)
        assert np.all(photo.values >= 0)
        assert np.all(photo.values <= 3.0)

    def test_ced3d_mode_skips_color(self, rng):
        cloud = random_colored_cloud(rng, 100)
        params = DetectorParams(radius=0.3, mode=DetectorMode.CED_3D)
        graph = build_index(cloud).neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        assert photo is None
        assert len(geo) == len(cloud)

    def test_ced_mode_needs_color(self, rng):
        xyz = rng.uniform(0, 1, (40, 3))
        cloud = ColoredPointCloud(xyz, np.zeros((40, 3)), has_color=False)
        with pytest.raises(NoColorError):
            prepare(cloud, DetectorParams(radius=0.3))

    def test_color_checked_before_the_index_is_built(self, rng, monkeypatch):
        def no_index(cloud):
            raise AssertionError("build_index reached")

        monkeypatch.setattr("cedkit.detector.build_index", no_index)
        cloud = ColoredPointCloud(rng.uniform(0, 1, (40, 3)), np.zeros((40, 3)),
                                  has_color=False)
        with pytest.raises(NoColorError):
            prepare(cloud, DetectorParams(radius=0.3))
        with pytest.raises(NoColorError):
            detect(cloud, DetectorParams(radius=0.3))


class TestGraphLayout:
    """The graph's pairs are two contiguous 4-byte columns, and the per-pair
    passes give the same bits over any other layout of the same pairs."""

    ROOM = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.3, pitch=0.01, tile=0.1,
                     jitter=0.35, seed=5)

    @pytest.mark.parametrize("radius", [0.04, 0.05])
    def test_column_major_int32_pairs(self, radius):
        room = generate_scene(self.ROOM)
        # the lattice has pairs at exactly the radius, which the recheck drops
        lattice = ColoredPointCloud(*exact_pitch_plane(pitch=0.01))
        for cloud in (room, lattice):
            pairs = build_index(cloud).neighbor_graph(radius).pairs
            m = pairs.shape[0]
            assert m > 0 and pairs.shape == (m, 2)
            assert np.all(pairs[:, 0] < pairs[:, 1])
            first, second = pairs.T
            assert first.flags.c_contiguous and second.flags.c_contiguous
            assert pairs.nbytes == 8 * m

    @pytest.mark.parametrize("mode", list(DetectorMode))
    def test_any_pair_layout_gives_identical_fields_and_mask(self, mode):
        room = generate_scene(self.ROOM)
        params = DetectorParams(radius=0.04, mode=mode)
        graph = build_index(room).neighbor_graph(params.radius)
        assert graph.pairs.shape[0] > 8 * 8192  # several blocks
        wide = NeighborGraph(graph.n_points, np.ascontiguousarray(graph.pairs, dtype=np.int64))
        fields = [f for f in saliency_from_graph(room, graph, params) if f is not None]
        wide_fields = [f for f in saliency_from_graph(room, wide, params) if f is not None]
        assert len(fields) == len(wide_fields)
        for field, wide_field in zip(fields, wide_fields):
            assert np.array_equal(field.values, wide_field.values)
            assert np.array_equal(field.valid, wide_field.valid)
        assert np.array_equal(local_maxima(fields, graph), local_maxima(wide_fields, wide))


class TestRigidInvariance:
    def assert_boundary_stable(self, cloud, radius):
        diffs = cloud.xyz[:, None, :] - cloud.xyz[None, :, :]
        distances = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(distances, np.inf)
        assert np.abs(distances - radius).min() > 1e-6 * radius

    def test_saliency_fields_invariant(self, rng):
        cloud = random_colored_cloud(rng, 300)
        params = DetectorParams(radius=0.25)
        self.assert_boundary_stable(cloud, params.radius)

        graph = build_index(cloud).neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        for _ in range(3):
            transform = sample_rigid_transform(rng)
            moved = apply_rigid_transform(cloud, transform)
            moved_graph = build_index(moved).neighbor_graph(params.radius)
            # neighborhoods must not flip on a boundary-stable cloud
            for i in range(0, 300, 29):
                assert np.array_equal(
                    graph_neighbors(moved_graph, i),
                    linear_scan_neighbors(cloud.xyz, i, params.radius),
                )
            geo_moved, photo_moved = saliency_from_graph(moved, moved_graph, params)
            assert np.abs(geo_moved.values - geo.values).max() < 1e-9
            assert np.abs(photo_moved.values - photo.values).max() < 1e-9


class TestMultimodalNms:
    def test_single_modality_is_classic_nms(self, rng):
        cloud = random_colored_cloud(rng, 250)
        index = build_index(cloud)
        graph = index.neighbor_graph(0.25)
        params = DetectorParams(radius=0.25, mode=DetectorMode.CED_3D)
        geo, _ = saliency_from_graph(cloud, graph, params)
        threshold = 0.05
        got = multimodal_nms([geo], [threshold], local_maxima([geo], graph))

        expected = []
        for i in range(len(cloud)):
            if not geo.valid[i] or geo.values[i] < threshold:
                continue
            neighbors = linear_scan_neighbors(cloud.xyz, i, 0.25)
            others = geo.values[[j for j in neighbors if geo.valid[j]]]
            if not np.any(others > geo.values[i]):
                expected.append(i)
        assert got.tolist() == expected

    def test_two_modalities_equal_detect(self, rng):
        cloud = random_colored_cloud(rng, 250)
        params = DetectorParams(radius=0.25, geo_threshold=0.2, color_threshold=0.3)
        index = build_index(cloud)
        graph = index.neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        via_nms = multimodal_nms(
            [geo, photo],
            [params.geo_threshold * params.radius, params.color_threshold],
            local_maxima([geo, photo], graph),
        )
        assert np.array_equal(via_nms, detect(cloud, params).indices)

    def test_three_modalities_against_transcription(self, rng):
        cloud = random_colored_cloud(rng, 300)
        params = DetectorParams(radius=0.25)
        index = build_index(cloud)
        graph = index.neighbor_graph(params.radius)
        geo, photo = saliency_from_graph(cloud, graph, params)
        third = SaliencyField(rng.uniform(0, 1, size=300), geo.valid)
        thresholds = [0.04, 0.25, 0.5]
        fields = [geo, photo, third]
        got = multimodal_nms(fields, thresholds, local_maxima(fields, graph))

        neighbor_sets = [linear_scan_neighbors(cloud.xyz, i, 0.25) for i in range(300)]
        expected = nms_transcription(
            [geo.values, photo.values, third.values],
            thresholds,
            neighbor_sets,
            geo.valid,
        )
        assert np.array_equal(got, expected)

    def test_invalid_points_never_select_nor_suppress(self):
        # point 2 has a huge product but is invalid; it must not win nor veto
        xyz = np.array([[0, 0, 0], [0.01, 0, 0], [0.02, 0, 0]], dtype=float)
        cloud = ColoredPointCloud(xyz, np.zeros((3, 3)))
        graph = build_index(cloud).neighbor_graph(0.1)
        values = np.array([0.5, 0.4, 9.0])
        valid = np.array([True, True, False])
        field = SaliencyField(values, valid)
        got = multimodal_nms([field], [0.1], local_maxima([field], graph))
        assert got.tolist() == [0]

    def test_misalignment_rejected(self, small_cloud):
        graph = build_index(small_cloud).neighbor_graph(0.2)
        field = SaliencyField(np.zeros(len(small_cloud)), np.ones(len(small_cloud), bool))
        short = SaliencyField(np.zeros(10), np.ones(10, bool))
        mask = local_maxima([field], graph)
        with pytest.raises(MisalignedFieldsError):
            multimodal_nms([field], [0.1, 0.2], mask)
        with pytest.raises(MisalignedFieldsError):
            multimodal_nms([short], [0.1], mask)
        with pytest.raises(MisalignedFieldsError):
            multimodal_nms([], [], mask)
        with pytest.raises(MisalignedFieldsError):
            local_maxima([short], graph)

    def test_mask_must_hold_one_flag_per_point(self, small_cloud):
        graph = build_index(small_cloud).neighbor_graph(0.2)
        field = SaliencyField(np.zeros(len(small_cloud)), np.ones(len(small_cloud), bool))
        mask = local_maxima([field], graph)
        for wrong in (mask[:-1], mask[:, None], mask[0], graph):
            with pytest.raises(MisalignedFieldsError):
                multimodal_nms([field], [0.1], wrong)

    def test_mask_step_equals_graph_step(self, rng):
        cloud = random_colored_cloud(rng, 250)
        params = DetectorParams(radius=0.25)
        index = build_index(cloud)
        graph = index.neighbor_graph(params.radius)
        fields = list(saliency_from_graph(cloud, graph, params))
        mask = local_maxima(fields, graph)
        neighbor_sets = [[i] for i in range(len(cloud))]
        for i, j in graph.pairs:
            neighbor_sets[i].append(j)
            neighbor_sets[j].append(i)
        for thresholds in ([0.0, 0.0], [0.05, 0.3], [0.2, 3.0]):
            assert np.array_equal(
                multimodal_nms(fields, thresholds, mask),
                nms_transcription(
                    [f.values for f in fields], thresholds, neighbor_sets, fields[0].valid
                ),
            )
        with pytest.raises(MisalignedFieldsError):
            multimodal_nms(fields, [0.1, 0.1], mask[:-1])


class TestPrepareSelect:
    GEO_GRID = (0.0, 0.1, 0.25, 0.5)
    COLOR_GRID = (0.0, 0.2, 0.4, 0.8)

    @pytest.mark.parametrize("mode", [DetectorMode.CED, DetectorMode.CED_3D])
    def test_threshold_grid_matches_transcription(self, rng, mode):
        cloud = random_colored_cloud(rng, 200)
        base = DetectorParams(radius=0.25, mode=mode)
        prepared = prepare(cloud, base)
        for geo in self.GEO_GRID:
            for color in self.COLOR_GRID:
                params = replace(base, geo_threshold=geo, color_threshold=color)
                keys = select(prepared, params)
                assert keys.params == params
                assert np.array_equal(keys.indices, detect_brute_force(cloud, params))

    def test_prepared_record_holds_per_point_arrays_only(self, rng):
        cloud = random_colored_cloud(rng, 300)
        prepared = prepare(cloud, DetectorParams(radius=0.25))
        assert {f.name for f in dataclass_fields(PreparedCloud)} == {
            "params", "geometric", "photometric", "local_max",
        }
        arrays = [prepared.local_max]
        for field in prepared.fields:
            arrays += [field.values, field.valid]
        assert all(a.shape == (len(cloud),) for a in arrays)

    def test_fields_equal_detect_with_fields(self, rng):
        cloud = random_colored_cloud(rng, 300)
        params = DetectorParams(radius=0.25, geo_threshold=0.3, color_threshold=0.2)
        prepared = prepare(cloud, params)
        result = detect_with_fields(cloud, params)
        assert np.array_equal(prepared.geometric.values, result.geometric.values)
        assert np.array_equal(prepared.photometric.values, result.photometric.values)
        assert np.array_equal(select(prepared, params).indices, result.keypoints.indices)

    def test_select_rejects_threshold_free_changes(self, rng):
        cloud = random_colored_cloud(rng, 100)
        base = DetectorParams(radius=0.25)
        prepared = prepare(cloud, base)
        for changed in (
            replace(base, radius=0.3),
            replace(base, min_neighbors=3),
            replace(base, mode=DetectorMode.CED_3D),
        ):
            with pytest.raises(InvalidParamsError):
                select(prepared, changed)


class TestDetect:
    def test_uniform_plane_keeps_interior_empty(self, caplog):
        # interior points fail both thresholds; only the free boundary of the
        # finite sample is geometry-salient (and, colors being uniform, every
        # saliency product is zero, which triggers the degeneracy warning)
        xyz, rgb = exact_pitch_plane()
        cloud = ColoredPointCloud(xyz, rgb, resolution=0.015625)
        params = DetectorParams(radius=3.5 * 0.015625, geo_threshold=0.2, color_threshold=0.1)
        with caplog.at_level(logging.WARNING, logger="cedkit.detector"):
            keys = detect(cloud, params)
        assert "CED_3D" in caplog.text
        border = 4 * 0.015625
        high = 40 * 0.015625 - border
        interior = (
            (cloud.xyz[:, 0] > border) & (cloud.xyz[:, 0] < high)
            & (cloud.xyz[:, 1] > border) & (cloud.xyz[:, 1] < high)
        )
        assert not np.any(interior[keys.indices])

    def test_red_point_on_gray_plane_is_keypoint(self):
        xyz, rgb = exact_pitch_plane()
        center = 20 * 41 + 20
        rgb = rgb.copy()
        rgb[center] = [1.0, 0.0, 0.0]
        cloud = ColoredPointCloud(xyz, rgb, resolution=0.015625)
        params = DetectorParams(radius=3.5 * 0.015625, geo_threshold=0.2, color_threshold=0.1)
        keys = detect(cloud, params)
        assert center in keys.indices
        # exact-arithmetic grid: the literal transcription must agree exactly
        assert np.array_equal(keys.indices, detect_brute_force(cloud, params))

    def test_random_cloud_matches_transcription(self, rng):
        cloud = random_colored_cloud(rng, 500)
        params = DetectorParams(radius=0.2, geo_threshold=0.2, color_threshold=0.3)
        assert np.array_equal(
            detect(cloud, params).indices, detect_brute_force(cloud, params)
        )

    def test_ced3d_matches_transcription(self, rng):
        cloud = random_colored_cloud(rng, 400)
        params = DetectorParams(radius=0.22, geo_threshold=0.1, mode=DetectorMode.CED_3D)
        assert np.array_equal(
            detect(cloud, params).indices, detect_brute_force(cloud, params)
        )

    def test_deterministic(self, rng):
        cloud = random_colored_cloud(rng, 300)
        params = DetectorParams(radius=0.25)
        first = detect(cloud, params)
        second = detect(cloud, params)
        assert np.array_equal(first.indices, second.indices)

    def test_keypoints_ascending_unique_valid(self, rng):
        cloud = random_colored_cloud(rng, 300)
        keys = detect(cloud, DetectorParams(radius=0.25))
        assert np.all(np.diff(keys.indices) > 0)
        assert keys.indices.min() >= 0 and keys.indices.max() < 300

    def test_monotone_in_thresholds(self, rng):
        cloud = random_colored_cloud(rng, 400)
        counts_g = [
            len(detect(cloud, DetectorParams(radius=0.25, geo_threshold=t, color_threshold=0.1)))
            for t in (0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        assert counts_g == sorted(counts_g, reverse=True)
        counts_c = [
            len(detect(cloud, DetectorParams(radius=0.25, geo_threshold=0.2, color_threshold=t)))
            for t in (0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        assert counts_c == sorted(counts_c, reverse=True)

    def test_equal_saliency_plateau_coselected(self):
        xyz = np.array([[0, 0, 0], [0.08, 0, 0]], dtype=float)
        cloud = ColoredPointCloud(xyz, np.full((2, 3), 0.5))
        params = DetectorParams(
            radius=0.1, geo_threshold=0.2, mode=DetectorMode.CED_3D, min_neighbors=1
        )
        keys = detect(cloud, params)
        assert keys.indices.tolist() == [0, 1]

    def test_ced_needs_color(self, rng):
        xyz = rng.uniform(0, 1, (50, 3))
        cloud = ColoredPointCloud(xyz, np.zeros((50, 3)), has_color=False)
        with pytest.raises(NoColorError):
            detect(cloud, DetectorParams(radius=0.3))
        keys = detect(cloud, DetectorParams(radius=0.3, mode=DetectorMode.CED_3D))
        assert keys.indices.size >= 0


class TestExports:
    def test_csv_layout(self, rng):
        cloud = random_colored_cloud(rng, 200)
        result = detect_with_fields(cloud, DetectorParams(radius=0.25))
        text = export_keypoints_csv(cloud, result.keypoints, result.geometric, result.photometric)
        lines = text.splitlines()
        assert lines[0] == "index,x,y,z,r,g,b,d_g,d_c"
        assert len(lines) == len(result.keypoints) + 1
        first = lines[1].split(",")
        i = int(first[0])
        assert float(first[1]) == pytest.approx(cloud.xyz[i, 0])
        assert float(first[7]) == pytest.approx(result.geometric.values[i])

    def test_ply_export_parses_back(self, rng):
        cloud = random_colored_cloud(rng, 200)
        result = detect_with_fields(cloud, DetectorParams(radius=0.25))
        data = export_keypoints_ply(cloud, result.keypoints)
        subset = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert len(subset) == len(result.keypoints)
        expected = cloud.xyz[result.keypoints.indices].astype(np.float32)
        assert np.allclose(subset.xyz, expected, atol=1e-7)
