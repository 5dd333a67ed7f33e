from __future__ import annotations

import numpy as np
import pytest

from cedkit import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
    remove_invalid,
    sample_rigid_transform,
    voxel_downsample,
)
from cedkit.errors import (
    InvalidTransformError,
    NegativeSigmaError,
    NonPositiveLeafError,
)
from oracles import voxel_bins_brute_force


def make_cloud(xyz, rgb=None, resolution=0.01):
    xyz = np.asarray(xyz, dtype=float)
    if rgb is None:
        rgb = np.zeros_like(xyz)
    return ColoredPointCloud(xyz, rgb, resolution=resolution)


class TestColoredPointCloud:
    def test_arrays_round_trip_fields(self):
        cloud = make_cloud([[1.0, 2.0, 3.0]], [[0.1, 0.2, 0.3]])
        assert cloud.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert cloud.rgb.tolist() == [[0.1, 0.2, 0.3]]
        assert len(cloud) == 1

    def test_arrays_are_frozen(self):
        cloud = make_cloud([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 1.0

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, 0]], resolution=0.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ColoredPointCloud(np.zeros((2, 3)), np.zeros((3, 3)))


class TestRemoveInvalid:
    def test_clean_cloud_unchanged(self, small_cloud):
        assert remove_invalid(small_cloud) is small_cloud

    def test_nan_rows_dropped_in_order(self):
        xyz = np.zeros((10, 3))
        xyz[:, 0] = np.arange(10)
        xyz[[2, 5, 7], 2] = np.nan
        cloud = make_cloud(xyz)
        cleaned = remove_invalid(cloud)
        assert len(cleaned) == 7
        assert list(cleaned.xyz[:, 0]) == [0, 1, 3, 4, 6, 8, 9]

    def test_survivors_are_complement_of_injected(self, rng):
        xyz = rng.uniform(0, 1, size=(200, 3))
        rgb = rng.uniform(0, 1, size=(200, 3))
        bad = rng.choice(200, size=40, replace=False)
        xyz[bad[:20], 1] = np.inf
        rgb[bad[20:], 0] = np.nan
        cloud = ColoredPointCloud(xyz, rgb)
        cleaned = remove_invalid(cloud)
        expected = sorted(set(range(200)) - set(bad.tolist()))
        assert np.array_equal(cleaned.xyz, xyz[expected])
        assert np.array_equal(cleaned.rgb, rgb[expected])

    def test_idempotent(self, rng):
        xyz = rng.uniform(0, 1, size=(50, 3))
        xyz[3, 0] = np.nan
        cloud = make_cloud(xyz)
        once = remove_invalid(cloud)
        twice = remove_invalid(once)
        assert np.array_equal(once.xyz, twice.xyz)


class TestVoxelDownsample:
    def test_coincident_points_average(self):
        cloud = ColoredPointCloud(
            [[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 1, 1]], resolution=0.01
        )
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 1
        assert np.allclose(out.xyz[0], [0, 0, 0])
        assert np.allclose(out.rgb[0], [0.5, 0.5, 0.5])
        assert out.resolution == 0.01

    def test_sparse_points_untouched(self):
        xyz = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 2, 2]], dtype=float)
        cloud = make_cloud(xyz)
        out = voxel_downsample(cloud, 0.01)
        assert sorted(map(tuple, out.xyz)) == sorted(map(tuple, xyz))

    def test_matches_brute_force_binning(self, rng):
        xyz = rng.uniform(-1, 1, size=(10_000, 3))
        rgb = rng.uniform(0, 1, size=(10_000, 3))
        cloud = ColoredPointCloud(xyz, rgb)
        out = voxel_downsample(cloud, 0.1)
        keys, exp_xyz, exp_rgb = voxel_bins_brute_force(cloud, 0.1)
        assert len(out) == len(keys) <= 10_000
        assert np.array_equal(out.xyz, exp_xyz)
        assert np.array_equal(out.rgb, exp_rgb)

    def test_output_sorted_by_voxel_key(self, rng):
        cloud = make_cloud(rng.uniform(-1, 1, size=(500, 3)))
        out = voxel_downsample(cloud, 0.25)
        keys = np.floor(out.xyz / 0.25).astype(int)
        as_tuples = list(map(tuple, keys))
        assert as_tuples == sorted(as_tuples)

    def test_leaf_must_be_positive(self, small_cloud):
        with pytest.raises(NonPositiveLeafError):
            voxel_downsample(small_cloud, 0.0)

    def test_empty_cloud_allowed(self):
        cloud = ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        out = voxel_downsample(cloud, 0.5)
        assert len(out) == 0
        assert out.resolution == 0.5


class TestRigidTransform:
    def test_identity_leaves_cloud_alone(self, small_cloud):
        out = apply_rigid_transform(small_cloud, RigidTransform.identity())
        assert np.array_equal(out.xyz, small_cloud.xyz)
        assert np.array_equal(out.rgb, small_cloud.rgb)

    def test_pure_translation(self):
        cloud = make_cloud([[0, 0, 0]], [[0.5, 0.5, 0.5]])
        moved = apply_rigid_transform(
            cloud, RigidTransform(np.eye(3), [1.0, 0.0, 0.0])
        )
        assert np.array_equal(moved.xyz[0], [1.0, 0.0, 0.0])
        assert np.array_equal(moved.rgb, cloud.rgb)

    def test_distances_preserved(self, rng):
        xyz = rng.uniform(0, 1, size=(50, 3))
        cloud = make_cloud(xyz)
        transform = sample_rigid_transform(rng)
        moved = apply_rigid_transform(cloud, transform)

        def pairwise(a):
            return np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)

        assert np.abs(pairwise(moved.xyz) - pairwise(xyz)).max() < 1e-9

    def test_bad_rotation_rejected(self):
        with pytest.raises(InvalidTransformError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(InvalidTransformError):
            # orthonormal but determinant -1
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_sampled_transforms_satisfy_invariants(self, rng):
        for _ in range(25):
            transform = sample_rigid_transform(rng)
            defect = np.abs(transform.rotation.T @ transform.rotation - np.eye(3)).max()
            assert defect <= 1e-9
            assert abs(np.linalg.det(transform.rotation) - 1.0) <= 1e-9


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self, small_cloud):
        out = add_gaussian_noise(small_cloud, 0.0, seed=1)
        assert np.array_equal(out.xyz, small_cloud.xyz)

    def test_same_seed_same_output(self, small_cloud):
        a = add_gaussian_noise(small_cloud, 0.01, seed=42)
        b = add_gaussian_noise(small_cloud, 0.01, seed=42)
        assert np.array_equal(a.xyz, b.xyz)
        c = add_gaussian_noise(small_cloud, 0.01, seed=43)
        assert not np.array_equal(a.xyz, c.xyz)

    def test_colors_untouched(self, small_cloud):
        out = add_gaussian_noise(small_cloud, 0.02, seed=5)
        assert np.array_equal(out.rgb, small_cloud.rgb)

    def test_displacement_statistics(self, rng):
        # Table-scale check: sigma 0.005 on 100k points, per-axis sample std
        # of the displacement within 2% of sigma.
        cloud = make_cloud(rng.uniform(0, 1, size=(100_000, 3)))
        noisy = add_gaussian_noise(cloud, 0.005, seed=99)
        displacement = noisy.xyz - cloud.xyz
        stds = displacement.std(axis=0)
        assert np.all(np.abs(stds - 0.005) < 0.02 * 0.005)

    def test_negative_sigma_rejected(self, small_cloud):
        with pytest.raises(NegativeSigmaError):
            add_gaussian_noise(small_cloud, -0.1, seed=0)
