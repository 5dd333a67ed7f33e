from __future__ import annotations

import numpy as np
import pytest

from cedkit import ColoredPointCloud, DetectorParams, build_index, detect, index
from cedkit.errors import EmptyCloudError, InvalidParamsError
from oracles import (
    detect_brute_force,
    exact_tie_pairs,
    graph_neighbors,
    linear_scan_neighbors,
    random_colored_cloud,
)


def cloud_of(xyz):
    xyz = np.asarray(xyz, dtype=float)
    return ColoredPointCloud(xyz, np.zeros_like(xyz), resolution=0.05)


def scan_pairs(xyz, radius):
    """Pairs i < j of the linear scan's strict-radius neighborhoods."""
    pairs = [(i, j) for i in range(len(xyz)) for j in linear_scan_neighbors(xyz, i, radius) if j > i]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


class TestBuildIndex:
    def test_single_point(self):
        index = build_index(cloud_of([[0, 0, 0]]))
        assert len(index) == 1
        assert list(graph_neighbors(index.neighbor_graph(1.0), 0)) == [0]

    def test_collinear_points(self):
        cloud = cloud_of([[0, 0, 0], [0, 0, 1], [0, 0, 2]])
        graph = build_index(cloud).neighbor_graph(1.5)
        for i in range(3):
            expected = linear_scan_neighbors(cloud.xyz, i, 1.5)
            assert np.array_equal(graph_neighbors(graph, i), expected)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloudError):
            build_index(ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 3))))

    def test_large_cloud_spot_queries(self, rng):
        xyz = rng.uniform(0, 1, size=(10_000, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.05)
        for i in rng.choice(10_000, size=20, replace=False):
            expected = linear_scan_neighbors(xyz, int(i), 0.05)
            assert np.array_equal(graph_neighbors(graph, int(i)), expected)


class TestRadiusNeighbors:
    def test_isolated_point_returns_itself(self):
        cloud = cloud_of([[0, 0, 0], [10, 10, 10]])
        graph = build_index(cloud).neighbor_graph(0.1)
        assert list(graph_neighbors(graph, 0)) == [0]

    def test_boundary_is_strict(self):
        index = build_index(cloud_of([[0, 0, 0], [0.05, 0, 0]]))
        graph = index.neighbor_graph(0.05)
        assert list(graph_neighbors(graph, 0)) == [0]
        assert list(graph_neighbors(graph, 1)) == [1]
        # barely beyond the pair distance both appear
        assert list(graph_neighbors(index.neighbor_graph(0.051), 0)) == [0, 1]

    def test_matches_linear_scan(self, rng):
        xyz = rng.uniform(0, 1, size=(5_000, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.03)
        queries = rng.choice(5_000, size=100, replace=False)
        for q in queries:
            expected = linear_scan_neighbors(xyz, int(q), 0.03)
            assert np.array_equal(graph_neighbors(graph, int(q)), expected)

    def test_results_ascending_and_self_included(self, rng):
        # graph_neighbors keeps repeats, so a pair stored twice or a self-pair fails here
        xyz = rng.uniform(0, 0.2, size=(300, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.07)
        for q in range(0, 300, 17):
            got = graph_neighbors(graph, q)
            assert q in got
            assert np.all(np.diff(got) > 0)

    def test_radius_must_be_positive(self):
        index = build_index(cloud_of([[0, 0, 0]]))
        with pytest.raises(InvalidParamsError):
            index.neighbor_graph(0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_radius_must_be_finite(self, radius):
        index = build_index(cloud_of(np.arange(30.0).reshape(10, 3)))
        with pytest.raises(InvalidParamsError):
            index.neighbor_graph(radius)


class TestNeighborGraph:
    def test_graph_agrees_with_single_queries(self, rng):
        xyz = rng.uniform(0, 0.5, size=(400, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.08)
        counts = np.bincount(graph.pairs.ravel(), minlength=400) + 1
        assert np.all(graph.pairs[:, 0] < graph.pairs[:, 1])
        neighbor_sets = [{i} for i in range(400)]
        for i, j in graph.pairs.tolist():
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)
        for i in range(0, 400, 13):
            single = linear_scan_neighbors(xyz, i, 0.08)
            assert np.array_equal(graph_neighbors(graph, i), single)
            assert np.array_equal(sorted(neighbor_sets[i]), single)
            assert counts[i] == single.size

    def test_pairs_equal_scan_over_many_blocks(self, rng):
        # about 53k pairs, so the recheck runs over several blocks
        xyz = rng.uniform(0, 1, size=(2_000, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.2)
        order = np.lexsort((graph.pairs[:, 1], graph.pairs[:, 0]))
        assert np.array_equal(graph.pairs[order], scan_pairs(xyz, 0.2))

    def test_grid_tie_handling_matches_scan(self):
        # lattice distances land exactly on the radius; strict rule must agree
        side = np.arange(9) * 0.01
        gx, gy = np.meshgrid(side, side, indexing="ij")
        xyz = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.05)
        for q in (0, 40, 44, 80):
            expected = linear_scan_neighbors(xyz, q, 0.05)
            assert np.array_equal(graph_neighbors(graph, q), expected)


def _duplicated_sites(rng):
    return np.repeat(rng.uniform(0, 0.2, size=(20, 3)), 50, axis=0)


def _collinear(rng):
    # pitch 0.01 puts neighbors at exactly r = 0.01 and r = 0.05
    return np.column_stack([np.arange(1_000) * 0.01, np.zeros(1_000), np.zeros(1_000)])


def _coplanar_lattice(rng):
    gx, gy = np.meshgrid(np.arange(30) * 0.01, np.arange(30) * 0.01, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


def _far_clusters(rng):
    cluster = rng.uniform(0, 0.1, size=(200, 3))
    return np.vstack([cluster, rng.uniform(0, 0.1, size=(200, 3)) + 1e6])


def _identical(rng):
    return np.full((700, 3), 0.25)


class TestDegenerateLayouts:
    """Layouts that stress the tree's splits: duplicates, ties, flat and far-apart data."""

    @pytest.mark.parametrize("radius", [0.01, 0.05])
    @pytest.mark.parametrize(
        "layout",
        [_duplicated_sites, _collinear, _coplanar_lattice, _far_clusters, _identical],
        ids=lambda layout: layout.__name__.lstrip("_"),
    )
    def test_pairs_equal_scan(self, rng, layout, radius):
        xyz = layout(rng)
        graph = build_index(cloud_of(xyz)).neighbor_graph(radius)
        order = np.lexsort((graph.pairs[:, 1], graph.pairs[:, 0]))
        assert np.array_equal(graph.pairs[order], scan_pairs(xyz, radius))


class TestExactTies:
    """Two-point clouds whose distance is exactly the radius, in the scan's sum."""

    def test_graph_excludes_exact_ties(self, rng):
        for p, q, radius in exact_tie_pairs(rng, 8):
            xyz = np.array([p, q])
            graph = build_index(cloud_of(xyz)).neighbor_graph(radius)
            assert np.array_equal(graph.pairs, scan_pairs(xyz, radius))
            assert list(np.bincount(graph.pairs.ravel(), minlength=2) + 1) == [1, 1]


def _on_cuts(rng):
    # 240 points spanning x in [0, 1]: with 64 points per slab and r <= 0.05,
    # four slabs of width 0.25, so cuts at exactly 0.25, 0.5 and 0.75
    cuts = np.array([0.25, 0.5, 0.75])
    sites = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
    site_yz = rng.uniform(0, 0.02, size=(sites.size, 2))
    # each site eight times: identical points on a cut and an ulp either side of it
    on_cuts = np.repeat(np.column_stack([sites, site_yz]), 8, axis=0)
    # partners 0.0498 along x, across the cut from the sites on and below it
    partners = np.column_stack([np.concatenate([cuts - 0.0498, sites[3:6] + 0.0498]), site_yz[:6]])
    near = np.column_stack([rng.uniform(0.2, 0.8, size=160), rng.uniform(0, 0.05, size=(160, 2))])
    ends = [[0.0, 0.0, 0.0], [1.0, 0.05, 0.05]]
    return np.vstack([on_cuts, partners, near, ends])


@pytest.fixture
def slab_trees(monkeypatch):
    """Query every cloud of more than 64 points in slabs; yields the size of each tree built."""
    sizes = []
    build = index._kdtree

    def recording(xyz):
        sizes.append(len(xyz))
        return build(xyz)

    monkeypatch.setattr(index, "_SLAB_POINTS", 64)
    monkeypatch.setattr(index, "_kdtree", recording)
    return sizes


class TestSlabs:
    """Clouds above the slab threshold: the same pair set as one tree gives."""

    @pytest.mark.parametrize("radius", [0.01, 0.05])
    @pytest.mark.parametrize(
        "layout",
        [_duplicated_sites, _collinear, _coplanar_lattice, _far_clusters, _identical, _on_cuts],
        ids=lambda layout: layout.__name__.lstrip("_"),
    )
    def test_pairs_equal_scan(self, rng, slab_trees, layout, radius):
        xyz = layout(rng)
        graph = build_index(cloud_of(xyz)).neighbor_graph(radius)
        order = np.lexsort((graph.pairs[:, 1], graph.pairs[:, 0]))
        assert np.array_equal(graph.pairs[order], scan_pairs(xyz, radius))

    def test_cut_layout_is_sliced_at_every_cut(self, rng, slab_trees):
        xyz = _on_cuts(rng)
        build_index(cloud_of(xyz)).neighbor_graph(0.05)
        x = xyz[:, 0]
        slabs = [np.count_nonzero((x >= lo) & (x < lo + 0.25)) for lo in (0.0, 0.25, 0.5)]
        slabs.append(np.count_nonzero(x >= 0.75))
        # a slab tree, then the two band trees of its upper cut; no tree of the whole cloud
        assert slab_trees[0::3] == slabs
        assert max(slab_trees) < len(xyz)

    def test_pairs_equal_scan_over_many_blocks(self, rng, slab_trees):
        # x spans just under 2.0, too short for four slabs of 2.5 candidate
        # radii: three slabs of about 1,300 points, each with several recheck
        # blocks of pairs
        xyz = rng.uniform(0, 1, size=(4_000, 3)) * [2.0, 1.0, 1.0]
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.2)
        order = np.lexsort((graph.pairs[:, 1], graph.pairs[:, 0]))
        assert np.array_equal(graph.pairs[order], scan_pairs(xyz, 0.2))
        assert len(slab_trees) == 3 + 2 * 2

    def test_exact_ties_across_a_cut(self, rng, monkeypatch, slab_trees):
        # two far points put the one cut of a two-slab split between p and q
        monkeypatch.setattr(index, "_SLAB_POINTS", 2)
        crossing = 0
        for p, q, radius in exact_tie_pairs(rng, 8):
            middle = (p[0] + q[0]) / 2
            xyz = np.array([p, q, [middle - 8.0, p[1], p[2]], [middle + 8.0, p[1], p[2]]])
            graph = build_index(cloud_of(xyz)).neighbor_graph(radius)
            assert np.array_equal(graph.pairs, scan_pairs(xyz, radius))
            assert graph.pairs.shape == (0, 2)
            cut = (middle - 8.0) + 8.0
            crossing += (p[0] < cut) != (q[0] < cut)
        assert crossing >= 4

    def test_small_clouds_keep_one_tree(self, rng, slab_trees):
        xyz = rng.uniform(0, 1, size=(64, 3))
        graph = build_index(cloud_of(xyz)).neighbor_graph(0.05)
        assert slab_trees == [64]
        order = np.lexsort((graph.pairs[:, 1], graph.pairs[:, 0]))
        assert np.array_equal(graph.pairs[order], scan_pairs(xyz, 0.05))

    def test_detect_equals_brute_force(self, slab_trees):
        rng = np.random.default_rng(116)
        for trial in range(40):
            n = int(rng.integers(200, 501))
            cloud = random_colored_cloud(rng, n, extent=2.0)
            params = DetectorParams(
                radius=float(rng.uniform(0.15, 0.3)),
                geo_threshold=float(rng.uniform(0.05, 0.5)),
                color_threshold=float(rng.uniform(0.05, 1.0)),
            )
            del slab_trees[:]
            got = detect(cloud, params).indices
            assert max(slab_trees) < n, f"trial {trial} was not sliced"
            assert np.array_equal(got, detect_brute_force(cloud, params)), f"mismatch on trial {trial}"
