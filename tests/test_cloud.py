from __future__ import annotations

import numpy as np
import pytest

from cedkit import (
    ColoredPointCloud,
    DetectorMode,
    DetectorParams,
    KeypointSet,
    PreparedCloud,
    RepeatabilityConfig,
    RigidTransform,
    SaliencyField,
    SceneKind,
    SceneSpec,
    add_gaussian_noise,
    apply_rigid_transform,
    build_index,
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

    @pytest.mark.parametrize("value", [-5.0, 7.0, -1e-300, np.nextafter(1.0, 2.0)])
    def test_color_outside_unit_range_rejected(self, value):
        rgb = np.full((3, 3), 0.5)
        rgb[1, 2] = value
        with pytest.raises(InvalidParamsError, match=r"colors must lie in \[0, 1\]"):
            make_cloud(np.zeros((3, 3)), rgb)

    def test_unit_range_bounds_accepted(self):
        cloud = make_cloud(np.zeros((2, 3)), [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert cloud.rgb.min() == 0.0 and cloud.rgb.max() == 1.0


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

    @pytest.mark.parametrize("build", [
        lambda: RigidTransform(np.full((3, 3), np.nan)),
        lambda: RigidTransform(np.eye(3), [np.inf, 0.0, 0.0]),
        lambda: RigidTransform(np.eye(3), [1.0, 2.0]),
        lambda: RigidTransform("x"),
        lambda: apply_rigid_transform(make_cloud([[0, 0, 0]]), "x"),
    ], ids=["nan-rotation", "inf-translation", "two-translation-values", "string-rotation",
            "not-a-transform"])
    def test_not_a_rigid_motion_rejected_when_built(self, build):
        # a NaN rotation is rejected before its determinant is taken, so no
        # numpy warning is emitted (the suite turns warnings into failures)
        with pytest.raises(InvalidTransformError):
            build()

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

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_seed_must_be_a_non_negative_integer(self, small_cloud, sigma):
        for seed in (-1, 1.5, 2.0, "3", None):
            with pytest.raises(InvalidParamsError, match="non-negative integer"):
                add_gaussian_noise(small_cloud, sigma, seed)
        add_gaussian_noise(small_cloud, sigma, np.int64(3))


def _prepared(local_max):
    field = SaliencyField(np.ones(3), np.ones(3, dtype=bool))
    return PreparedCloud(DetectorParams(radius=0.1, mode=DetectorMode.CED_3D), field, None,
                         local_max)


class TestValueTypesKeepTheirOwnCopies:
    """Every value type stores a read-only, C-ordered copy; the caller's array stays writeable."""

    @pytest.mark.parametrize("build, given, stored", [
        (lambda a: ColoredPointCloud(a, np.zeros((2, 3))), np.ones((2, 3)), lambda v: v.xyz),
        (lambda a: RigidTransform(np.eye(3), a), np.zeros(3), lambda v: v.translation),
        (KeypointSet, np.array([1, 2, 3]), lambda v: v.indices),
        (lambda a: SaliencyField(a, np.ones(3, dtype=bool)), np.ones(3), lambda v: v.values),
        (_prepared, np.ones(3, dtype=bool), lambda v: v.local_max),
    ], ids=["cloud", "transform", "keypoints", "saliency", "prepared"])
    def test_callers_array_stays_writeable(self, build, given, stored):
        before = given.copy()
        kept = stored(build(given))
        assert given.flags.writeable
        assert not kept.flags.writeable and kept.flags.c_contiguous
        assert not np.shares_memory(kept, given)
        given[0] = 0
        assert np.array_equal(kept, before)


ONE_POINT = ColoredPointCloud(np.zeros((1, 3)), np.zeros((1, 3)))
# Every real-valued parameter, each set by one call; epsilon and the config's
# sigma take None for their defaults, so only a string is wrong there.
REAL_PARAMETERS = {
    "radius": lambda v: DetectorParams(radius=v),
    "geo_threshold": lambda v: DetectorParams(radius=0.1, geo_threshold=v),
    "color_threshold": lambda v: DetectorParams(radius=0.1, color_threshold=v),
    "epsilon": lambda v: RepeatabilityConfig(epsilon=v),
    "config-sigma": lambda v: RepeatabilityConfig(sigma=v),
    "noise-sigma": lambda v: add_gaussian_noise(ONE_POINT, v, 1),
    "resolution": lambda v: ColoredPointCloud(np.zeros((1, 3)), np.zeros((1, 3)), resolution=v),
    "extent": lambda v: SceneSpec(kind=SceneKind.PLANE, extent=v),
    "pitch": lambda v: SceneSpec(kind=SceneKind.PLANE, pitch=v),
    "tile": lambda v: SceneSpec(kind=SceneKind.PLANE, tile=v),
    "jitter": lambda v: SceneSpec(kind=SceneKind.PLANE, jitter=v),
    "graph-radius": lambda v: build_index(ONE_POINT).neighbor_graph(v),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in REAL_PARAMETERS for value in ("0.1", None, True, np.True_)
    if value is not None or name not in ("epsilon", "config-sigma")
], ids=lambda value: "np.True_" if value is np.True_ else None)
def test_real_parameter_of_another_type_rejected(name, value):
    with pytest.raises(InvalidParamsError, match=f"must be .*, got {value!r}"):
        REAL_PARAMETERS[name](value)
