from __future__ import annotations

import numpy as np
import pytest

from cedkit import CloudFormat, ColoredPointCloud, parse_cloud, sniff_format, write_cloud
from cedkit.errors import (
    EmptyCloudError,
    CedkitError,
    CloudFormatError,
    MalformedHeaderError,
    NonFiniteValueError,
    TruncatedBodyError,
    UnsupportedPropertyError,
)
from oracles import float32_valued_cloud

PLY_ONE_RED = b"""ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
"""


class TestPlyParse:
    def test_single_red_vertex(self):
        cloud = parse_cloud(PLY_ONE_RED, CloudFormat.PLY_ASCII)
        assert len(cloud) == 1
        assert cloud.has_color
        assert np.array_equal(cloud.xyz[0], [0, 0, 0])
        assert np.array_equal(cloud.rgb[0], [1.0, 0.0, 0.0])

    def test_truncated_body(self):
        data = PLY_ONE_RED.replace(b"element vertex 1", b"element vertex 3")
        data += b"1 1 1 0 0 0\n"
        with pytest.raises(TruncatedBodyError):
            parse_cloud(data, CloudFormat.PLY_ASCII)

    def test_colorless_file(self):
        data = (
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\nend_header\n"
            b"1 2 3\n4 5 6\n"
        )
        cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert not cloud.has_color
        assert np.array_equal(cloud.rgb, np.zeros((2, 3)))

    def test_comments_and_double_properties(self):
        data = (
            b"ply\nformat ascii 1.0\ncomment made by hand\nelement vertex 1\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
            b"0.1 0.2 0.3\n"
        )
        cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
        # double-typed coordinates keep full precision (no float32 snap)
        assert cloud.xyz[0, 0] == 0.1

    def test_float_coordinates_snap_to_float32(self):
        data = PLY_ONE_RED.replace(b"0 0 0 255 0 0", b"0.1 0 0 255 0 0")
        cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert cloud.xyz[0, 0] == float(np.float32(0.1))

    def test_unsupported_property_type(self):
        data = PLY_ONE_RED.replace(b"property uchar red", b"property int16 red")
        with pytest.raises(UnsupportedPropertyError):
            parse_cloud(data, CloudFormat.PLY_ASCII)

    def test_list_property_rejected(self):
        data = PLY_ONE_RED.replace(
            b"property uchar red", b"property list uchar int vertex_indices"
        )
        with pytest.raises(UnsupportedPropertyError):
            parse_cloud(data, CloudFormat.PLY_ASCII)

    def test_missing_coordinate_property(self):
        data = (
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(MalformedHeaderError):
            parse_cloud(data, CloudFormat.PLY_ASCII)

    def test_format_mismatch(self):
        with pytest.raises(MalformedHeaderError):
            parse_cloud(PLY_ONE_RED, CloudFormat.PLY_BINARY_LE)

    def test_truncated_binary_body(self, rng):
        cloud = float32_valued_cloud(rng, 10)
        data = write_cloud(cloud, CloudFormat.PLY_BINARY_LE)
        with pytest.raises(TruncatedBodyError):
            parse_cloud(data[:-8], CloudFormat.PLY_BINARY_LE)

    def test_trailing_face_element_ignored(self):
        data = (
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"element face 1\nproperty uchar red\nend_header\n"
            b"1 2 3\n0\n"
        )
        cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert len(cloud) == 1


class TestWriteAndRoundTrip:
    def test_one_point_round_trip(self):
        cloud = ColoredPointCloud([[0.25, -1.5, 3.0]], [[1.0, 0.0, 100 / 255]])
        for fmt in CloudFormat:
            parsed = parse_cloud(write_cloud(cloud, fmt), fmt)
            assert np.array_equal(parsed.xyz, cloud.xyz), fmt
            assert np.array_equal(parsed.rgb, cloud.rgb), fmt
            assert parsed.has_color

    def test_color_quantization_rule(self):
        cloud = ColoredPointCloud([[0, 0, 0]], [[0.5, 0.5, 0.5]])
        data = write_cloud(cloud, CloudFormat.PLY_ASCII)
        assert b"128 128 128" in data
        parsed = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert np.array_equal(parsed.rgb[0], np.full(3, 128 / 255))

    def test_binary_round_trip_bit_exact(self, rng):
        cloud = float32_valued_cloud(rng, 1000)
        parsed = parse_cloud(write_cloud(cloud, CloudFormat.PLY_BINARY_LE), CloudFormat.PLY_BINARY_LE)
        assert np.array_equal(parsed.xyz, cloud.xyz)
        assert np.array_equal(parsed.rgb, cloud.rgb)

    def test_pcd_round_trip_on_written_fixture(self, rng):
        # write -> parse -> write -> parse must be a fixed point
        source = float32_valued_cloud(rng, 100)
        first = parse_cloud(write_cloud(source, CloudFormat.PCD_ASCII), CloudFormat.PCD_ASCII)
        second = parse_cloud(write_cloud(first, CloudFormat.PCD_ASCII), CloudFormat.PCD_ASCII)
        assert np.array_equal(first.xyz, second.xyz)
        assert np.array_equal(first.rgb, second.rgb)
        assert np.array_equal(first.xyz, source.xyz)

    def test_ascii_ply_round_trip_bit_exact_on_f32_values(self, rng):
        cloud = float32_valued_cloud(rng, 500)
        parsed = parse_cloud(write_cloud(cloud, CloudFormat.PLY_ASCII), CloudFormat.PLY_ASCII)
        assert np.array_equal(parsed.xyz, cloud.xyz)
        assert np.array_equal(parsed.rgb, cloud.rgb)

    def test_colorless_round_trip(self):
        cloud = ColoredPointCloud([[1, 2, 3], [4, 5, 6]], np.zeros((2, 3)), has_color=False)
        for fmt in CloudFormat:
            parsed = parse_cloud(write_cloud(cloud, fmt), fmt)
            assert not parsed.has_color
            assert np.array_equal(parsed.xyz, cloud.xyz)

    def test_empty_cloud_rejected(self):
        cloud = ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(EmptyCloudError):
            write_cloud(cloud, CloudFormat.PLY_ASCII)


class TestPcdParse:
    def test_packed_rgb_decoding(self):
        packed = np.array([(200 << 16) | (100 << 8) | 50], dtype=np.uint32)
        token = f"{float(packed.view(np.float32)[0]):.9g}"
        data = (
            "VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F F\n"
            "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            f"POINTS 1\nDATA ascii\n1 2 3 {token}\n"
        ).encode()
        cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert np.array_equal(cloud.rgb[0], np.array([200, 100, 50]) / 255.0)

    def test_xyz_only(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
            b"1 2 3\n4 5 6\n"
        )
        cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert not cloud.has_color
        assert np.array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])

    def test_truncated_pcd(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"WIDTH 5\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 5\nDATA ascii\n"
            b"1 2 3\n"
        )
        with pytest.raises(TruncatedBodyError):
            parse_cloud(data, CloudFormat.PCD_ASCII)

    def test_binary_pcd_rejected(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"WIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA binary\nxxxx"
        )
        with pytest.raises(MalformedHeaderError):
            parse_cloud(data, CloudFormat.PCD_ASCII)

    def test_unsigned_rgb_rejected(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F U\n"
            b"COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            b"POINTS 1\nDATA ascii\n1 2 3 0\n"
        )
        with pytest.raises(UnsupportedPropertyError):
            parse_cloud(data, CloudFormat.PCD_ASCII)


PLY_THREE_HEADER = b"""ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
"""

PCD_THREE_HEADER = (
    b"VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F F\nCOUNT 1 1 1 1\n"
    b"WIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 3\nDATA ascii\n"
)


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "rows",
        [
            b"0 0 0 1 2 3\nnan 0 0 1 2 3\n0 0 1 1 2 3\n",
            b"0 0 0 1 2 3\n0 0 0 1 2 3\n0 -inf 1 1 2 3\n",
            b"0 0 0 1 2 3\n0 1 0 nan 2 3\n0 0 1 1 2 3\n",
        ],
        ids=["nan-x", "inf-y", "nan-red"],
    )
    def test_ascii_ply_rejected(self, rows):
        with pytest.raises(NonFiniteValueError) as excinfo:
            parse_cloud(PLY_THREE_HEADER + rows, CloudFormat.PLY_ASCII)
        assert isinstance(excinfo.value, CloudFormatError)
        assert isinstance(excinfo.value, CedkitError)

    @pytest.mark.parametrize(
        "rows",
        [
            b"0 0 0 0\n1 0 nan 0\n0 1 0 0\n",
            b"0 0 0 0\n1 0 0 0\n0 1 0 inf\n",
        ],
        ids=["nan-z", "inf-rgb"],
    )
    def test_pcd_rejected(self, rows):
        with pytest.raises(NonFiniteValueError):
            parse_cloud(PCD_THREE_HEADER + rows, CloudFormat.PCD_ASCII)

    def test_binary_ply_rejected(self, rng):
        cloud = float32_valued_cloud(rng, 3)
        data = write_cloud(cloud, CloudFormat.PLY_BINARY_LE)
        body = np.frombuffer(data[-len(cloud) * 15:], dtype=[("xyz", "<f4", 3), ("rgb", "u1", 3)]).copy()
        body["xyz"][1, 2] = np.inf
        broken = data[: -len(cloud) * 15] + body.tobytes()
        with pytest.raises(NonFiniteValueError):
            parse_cloud(broken, CloudFormat.PLY_BINARY_LE)

    def test_finite_three_vertex_files_parse(self):
        ply = parse_cloud(PLY_THREE_HEADER + b"0 0 0 1 2 3\n" * 3, CloudFormat.PLY_ASCII)
        pcd = parse_cloud(PCD_THREE_HEADER + b"0 0 0 0\n" * 3, CloudFormat.PCD_ASCII)
        assert len(ply) == len(pcd) == 3


class TestSniff:
    def test_recognizes_all_written_formats(self, rng):
        cloud = float32_valued_cloud(rng, 10)
        for fmt in CloudFormat:
            assert sniff_format(write_cloud(cloud, fmt)) is fmt

    def test_garbage_rejected(self):
        with pytest.raises(MalformedHeaderError):
            sniff_format(b"not a cloud at all")
