from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cedkit import SceneKind, SceneSpec, generate_scene
from cedkit.errors import InvalidParamsError
from cedkit.scenes import MAX_SCENE_POINTS

PINNED_SCENES = json.loads((Path(__file__).parent / "data" / "scene_sha256.json").read_text())["scenes"]


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, pitch=0.0)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=0.001, pitch=0.01)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, jitter=0.5)
        with pytest.raises(InvalidParamsError, match="seed"):
            SceneSpec(kind=SceneKind.PLANE, jitter=0.3, seed=-1)
        for seed in (1.5, 2.0, "3", None):
            with pytest.raises(InvalidParamsError, match="seed"):
                SceneSpec(kind=SceneKind.PLANE, jitter=0.3, seed=seed)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, base_color=(2.0, 0.0, 0.0))
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind="plane")
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=np.inf, pitch=np.inf)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=np.inf)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, tile=np.inf)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, pitch=np.nan)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=1e300, pitch=1e-10)
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=1e-9, tile=1e300, pitch=1e-10)

    @pytest.mark.parametrize("kind", list(SceneKind))
    @pytest.mark.parametrize("extent, pitch", [(0.01, 0.01), (0.02, 0.01), (0.05, 0.02), (0.13, 0.01), (0.3, 0.05)])
    def test_point_count_matches_generated_scene(self, kind, extent, pitch):
        if kind is SceneKind.ROOM_COMPOSITE and extent < 2 * pitch:
            with pytest.raises(InvalidParamsError, match="two pitches"):
                SceneSpec(kind=kind, extent=extent, pitch=pitch)
            return
        spec = SceneSpec(kind=kind, extent=extent, pitch=pitch)
        assert spec.n_points == len(generate_scene(spec))

    @pytest.mark.parametrize("kind", list(SceneKind))
    def test_too_many_points_rejected(self, kind):
        # the second spec's side counts are past sys.maxsize, so len(range) would overflow
        for extent, pitch in [(1.0, 1e-10), (1e20, 1.0)]:
            with pytest.raises(InvalidParamsError, match="points, more than"):
                SceneSpec(kind=kind, extent=extent, pitch=pitch)

    def test_room_needs_two_pitches(self):
        for extent in (0.01, 0.014):
            with pytest.raises(InvalidParamsError, match="two pitches"):
                SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=extent, pitch=0.01)
        # two pitches is the smallest closed box: every lattice point but the center
        assert len(generate_scene(SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.02, pitch=0.01))) == 26

    def test_integer_seeds_accepted(self):
        for seed in (0, 7, np.int64(7)):
            generate_scene(SceneSpec(kind=SceneKind.PLANE, extent=0.05, jitter=0.3, seed=seed))

    def test_point_limit_is_inclusive(self):
        # a 4096 x 4096 plane is exactly the limit; one more row and column is over
        assert SceneSpec(kind=SceneKind.PLANE, extent=4095.0, pitch=1.0).n_points == MAX_SCENE_POINTS
        with pytest.raises(InvalidParamsError):
            SceneSpec(kind=SceneKind.PLANE, extent=4096.0, pitch=1.0)


@pytest.mark.parametrize(
    "pinned", PINNED_SCENES, ids=lambda r: f"{r['kind']}-{r['extent']}-jitter{r['jitter']}"
)
def test_scene_bits_match_pinned_digest(pinned):
    spec = SceneSpec(kind=SceneKind(pinned["kind"]), extent=pinned["extent"], pitch=0.01,
                     jitter=pinned["jitter"], seed=pinned["seed"])
    cloud = generate_scene(spec)
    assert len(cloud) == spec.n_points == pinned["n_points"]
    assert cloud.resolution == 0.01
    assert hashlib.sha256(cloud.xyz.tobytes() + cloud.rgb.tobytes()).hexdigest() == pinned["sha256"]


class TestPlane:
    def test_grid_arithmetic(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.PLANE, extent=1.0, pitch=0.01))
        assert len(cloud) == 101 * 101
        assert cloud.resolution == 0.01
        assert np.all(cloud.rgb == cloud.rgb[0])
        assert np.all(cloud.xyz[:, 2] == 0.0)

    def test_deterministic(self):
        spec = SceneSpec(kind=SceneKind.PLANE, extent=0.3, pitch=0.01, jitter=0.2, seed=5)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert np.array_equal(a.xyz, b.xyz)


class TestCheckerFloor:
    def test_boundaries_at_tile_multiples(self):
        spec = SceneSpec(kind=SceneKind.CHECKER_FLOOR, extent=1.0, pitch=0.01, tile=0.2)
        cloud = generate_scene(spec)
        colors = cloud.rgb
        xyz = cloud.xyz
        # the color switches exactly when floor(x/0.2)+floor(y/0.2) flips parity
        ix = np.rint(xyz[:, 0] / 0.01).astype(int)
        iy = np.rint(xyz[:, 1] / 0.01).astype(int)
        parity = (ix // 20 + iy // 20) % 2
        base = np.asarray(spec.base_color)
        alt = np.asarray(spec.alt_color)
        expected = np.where(parity[:, None] == 0, base, alt)
        assert np.array_equal(colors, expected)

    def test_two_distinct_colors(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.CHECKER_FLOOR, extent=0.5, pitch=0.01))
        assert len(np.unique(cloud.rgb, axis=0)) == 2


class TestBoxCorner:
    def test_exactly_one_corner_vertex(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.BOX_CORNER, extent=0.2, pitch=0.01))
        at_origin = np.all(cloud.xyz == 0.0, axis=1)
        assert at_origin.sum() == 1
        assert int(np.nonzero(at_origin)[0][0]) == 0

    def test_no_duplicate_points(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.BOX_CORNER, extent=0.1, pitch=0.01))
        assert len(np.unique(cloud.xyz, axis=0)) == len(cloud)

    def test_three_faces(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.BOX_CORNER, extent=0.1, pitch=0.01))
        n = 11
        assert len(cloud) == n * n + n * (n - 1) + (n - 1) * (n - 1)


class TestRoomComposite:
    def test_closed_box_no_duplicates(self):
        cloud = generate_scene(SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01))
        assert len(np.unique(cloud.xyz, axis=0)) == len(cloud)

    def test_every_face_occupied(self):
        spec = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01)
        cloud = generate_scene(spec)
        xyz = cloud.xyz
        top = xyz[:, 2].max()
        for mask in (
            xyz[:, 2] == 0.0,
            xyz[:, 2] == top,
            xyz[:, 0] == 0.0,
            xyz[:, 1] == 0.0,
            xyz[:, 0] == xyz[:, 0].max(),
            xyz[:, 1] == xyz[:, 1].max(),
        ):
            assert mask.sum() > 100

    def test_floor_checker_walls_uniform(self):
        spec = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01, tile=0.2)
        cloud = generate_scene(spec)
        floor = cloud.xyz[:, 2] == 0.0
        assert len(np.unique(cloud.rgb[floor], axis=0)) == 2
        walls = ~floor & (cloud.xyz[:, 2] > 0)
        assert len(np.unique(cloud.rgb[walls], axis=0)) == 1

    def test_jitter_stays_subpitch(self):
        spec = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01, jitter=0.35, seed=9)
        plain = generate_scene(SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.4, pitch=0.01))
        jittered = generate_scene(spec)
        assert np.abs(jittered.xyz - plain.xyz).max() <= 0.35 * 0.01
