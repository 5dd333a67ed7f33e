from __future__ import annotations

import numpy as np
import pytest

from cedkit import ColoredPointCloud, build_index
from cedkit.errors import (
    EmptyCloudError,
    IndexOutOfRangeError,
    NonFiniteValueError,
    NonPositiveRadiusError,
)
from oracles import linear_scan_neighbors


def cloud_of(xyz):
    xyz = np.asarray(xyz, dtype=float)
    return ColoredPointCloud(xyz, np.zeros_like(xyz), resolution=0.05)


class TestBuildIndex:
    def test_single_point(self):
        index = build_index(cloud_of([[0, 0, 0]]))
        assert len(index) == 1
        assert list(index.radius_neighbors(0, 1.0)) == [0]

    def test_collinear_points(self):
        cloud = cloud_of([[0, 0, 0], [0, 0, 1], [0, 0, 2]])
        index = build_index(cloud)
        for i in range(3):
            expected = linear_scan_neighbors(cloud.xyz, i, 1.5)
            assert np.array_equal(index.radius_neighbors(i, 1.5), expected)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloudError):
            build_index(ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 3))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, value):
        xyz = np.zeros((3, 3))
        xyz[1, 0] = value
        with pytest.raises(NonFiniteValueError):
            build_index(cloud_of(xyz))

    def test_large_cloud_spot_queries(self, rng):
        xyz = rng.uniform(0, 1, size=(10_000, 3))
        cloud = cloud_of(xyz)
        index = build_index(cloud)
        for i in rng.choice(10_000, size=20, replace=False):
            expected = linear_scan_neighbors(xyz, int(i), 0.05)
            assert np.array_equal(index.radius_neighbors(int(i), 0.05), expected)


class TestRadiusNeighbors:
    def test_isolated_point_returns_itself(self):
        cloud = cloud_of([[0, 0, 0], [10, 10, 10]])
        index = build_index(cloud)
        assert list(index.radius_neighbors(0, 0.1)) == [0]

    def test_boundary_is_strict(self):
        cloud = cloud_of([[0, 0, 0], [0.05, 0, 0]])
        index = build_index(cloud)
        assert list(index.radius_neighbors(0, 0.05)) == [0]
        assert list(index.radius_neighbors(1, 0.05)) == [1]
        # barely beyond the pair distance both appear
        assert list(index.radius_neighbors(0, 0.051)) == [0, 1]

    def test_matches_linear_scan(self, rng):
        xyz = rng.uniform(0, 1, size=(5_000, 3))
        cloud = cloud_of(xyz)
        index = build_index(cloud)
        queries = rng.choice(5_000, size=100, replace=False)
        for q in queries:
            got = index.radius_neighbors(int(q), 0.03)
            expected = linear_scan_neighbors(xyz, int(q), 0.03)
            assert np.array_equal(got, expected)

    def test_results_ascending_and_self_included(self, rng):
        xyz = rng.uniform(0, 0.2, size=(300, 3))
        index = build_index(cloud_of(xyz))
        for q in range(0, 300, 17):
            got = index.radius_neighbors(q, 0.07)
            assert q in got
            assert np.all(np.diff(got) > 0)

    def test_symmetry(self, rng):
        xyz = rng.uniform(0, 0.3, size=(200, 3))
        index = build_index(cloud_of(xyz))
        neighborhoods = [set(index.radius_neighbors(i, 0.1).tolist()) for i in range(200)]
        for i in range(200):
            for j in neighborhoods[i]:
                assert i in neighborhoods[j]

    def test_radius_must_be_positive(self):
        index = build_index(cloud_of([[0, 0, 0]]))
        with pytest.raises(NonPositiveRadiusError):
            index.radius_neighbors(0, 0.0)

    def test_query_index_validated(self):
        index = build_index(cloud_of([[0, 0, 0]]))
        with pytest.raises(IndexOutOfRangeError):
            index.radius_neighbors(1, 0.1)
        with pytest.raises(IndexOutOfRangeError):
            index.radius_neighbors(-1, 0.1)


class TestNeighborGraph:
    def test_graph_agrees_with_single_queries(self, rng):
        xyz = rng.uniform(0, 0.5, size=(400, 3))
        cloud = cloud_of(xyz)
        index = build_index(cloud)
        graph = index.neighbor_graph(0.08)
        counts = graph.counts()
        assert np.all(graph.pairs[:, 0] < graph.pairs[:, 1])
        neighbor_sets = [{i} for i in range(400)]
        for i, j in graph.pairs.tolist():
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)
        for i in range(0, 400, 13):
            single = index.radius_neighbors(i, 0.08)
            assert np.array_equal(sorted(neighbor_sets[i]), single)
            assert counts[i] == single.size

    def test_grid_tie_handling_matches_scan(self):
        # lattice distances land exactly on the radius; strict rule must agree
        side = np.arange(9) * 0.01
        gx, gy = np.meshgrid(side, side, indexing="ij")
        xyz = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        cloud = cloud_of(xyz)
        index = build_index(cloud)
        for q in (0, 40, 44, 80):
            got = index.radius_neighbors(q, 0.05)
            expected = linear_scan_neighbors(xyz, q, 0.05)
            assert np.array_equal(got, expected)
