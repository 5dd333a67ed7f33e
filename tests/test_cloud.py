from __future__ import annotations

import numpy as np
import pytest

from cedkit import (
    ColoredPointCloud,
    RigidTransform,
    add_gaussian_noise,
    apply_rigid_transform,
    sample_rigid_transform,
)
from cedkit.errors import InvalidParamsError, InvalidTransformError, NonFiniteValueError
from oracles import random_colored_cloud


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
        with pytest.raises(InvalidParamsError):
            make_cloud([[0, 0, 0]], resolution=0.0)

    @pytest.mark.parametrize("resolution", [np.nan, np.inf])
    def test_resolution_must_be_finite(self, resolution):
        with pytest.raises(InvalidParamsError):
            make_cloud([[0, 0, 0]], resolution=resolution)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ColoredPointCloud(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(InvalidParamsError):
            ColoredPointCloud(np.zeros((2, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (1, 3, 3)])
    def test_array_shape_rejected(self, shape):
        with pytest.raises(InvalidParamsError):
            ColoredPointCloud(np.zeros(shape), np.zeros((1, 3)))
        with pytest.raises(InvalidParamsError):
            ColoredPointCloud(np.zeros((1, 3)), np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, value):
        xyz = np.zeros((3, 3))
        xyz[1, 0] = value
        with pytest.raises(NonFiniteValueError):
            make_cloud(xyz)

    def test_nan_color_rejected(self, rng):
        cloud = random_colored_cloud(rng, 300)
        rgb = cloud.rgb.copy()
        rgb[17] = [np.nan, 0.5, 0.5]
        with pytest.raises(NonFiniteValueError, match="colors of 1 point"):
            ColoredPointCloud(cloud.xyz, rgb)


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
        with pytest.raises(InvalidParamsError):
            add_gaussian_noise(small_cloud, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, small_cloud, sigma):
        with pytest.raises(InvalidParamsError):
            add_gaussian_noise(small_cloud, sigma, seed=0)
