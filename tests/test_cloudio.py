from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cedkit import CloudFormat, ColoredPointCloud, cloudio, parse_cloud, sniff_format, write_cloud
from cedkit.errors import (
    CedkitError,
    CloudFormatError,
    InvalidParamsError,
    MalformedHeaderError,
    NonFiniteValueError,
    TruncatedBodyError,
    UnsupportedPropertyError,
)
from oracles import float32_valued_cloud

DATA_DIR = Path(__file__).parent / "data"

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

    @pytest.mark.parametrize("declared", [b"property float red", b"property double red"])
    @pytest.mark.parametrize("layout", [CloudFormat.PLY_ASCII, CloudFormat.PLY_BINARY_LE])
    def test_non_uchar_color_property_rejected(self, declared, layout):
        data = PLY_ONE_RED.replace(b"property uchar red", declared)
        if layout is CloudFormat.PLY_BINARY_LE:
            data = data.replace(b"format ascii", b"format binary_little_endian")
        with pytest.raises(UnsupportedPropertyError, match="must be uchar"):
            parse_cloud(data, layout)

    @pytest.mark.parametrize("axis", [b"x", b"y", b"z"])
    @pytest.mark.parametrize("layout", [CloudFormat.PLY_ASCII, CloudFormat.PLY_BINARY_LE])
    def test_non_float_coordinate_property_rejected(self, axis, layout):
        data = PLY_ONE_RED.replace(b"property float " + axis, b"property uchar " + axis)
        if layout is CloudFormat.PLY_BINARY_LE:
            data = data.replace(b"format ascii", b"format binary_little_endian")
        with pytest.raises(UnsupportedPropertyError, match="must be float or double"):
            parse_cloud(data, layout)

    @pytest.mark.parametrize("token", [b"300", b"-7", b"0.5", b"256", b"1e9"])
    def test_ascii_uchar_token_outside_byte_rejected(self, token):
        data = PLY_ONE_RED.replace(b"0 0 0 255 0 0", b"0 0 0 255 " + token + b" 0")
        with pytest.raises(CloudFormatError, match="not an integer in 0..255") as excinfo:
            parse_cloud(data, CloudFormat.PLY_ASCII)
        assert not isinstance(excinfo.value, NonFiniteValueError)

    @pytest.mark.parametrize("token", [b"0", b"255", b"255.0", b"2.55e2", b"-0"])
    def test_ascii_uchar_integer_tokens_accepted(self, token):
        data = PLY_ONE_RED.replace(b"0 0 0 255 0 0", b"0 0 0 0 " + token + b" 0")
        cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
        assert cloud.rgb[0, 1] == float(token) / 255.0

    def test_list_property_rejected(self):
        data = PLY_ONE_RED.replace(
            b"property uchar red", b"property list uchar int vertex_indices"
        )
        with pytest.raises(UnsupportedPropertyError):
            parse_cloud(data, CloudFormat.PLY_ASCII)

    def test_bare_property_line_rejected(self):
        data = PLY_ONE_RED.replace(b"property uchar red", b"property\nproperty uchar red")
        with pytest.raises(MalformedHeaderError, match="unreadable property line"):
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
        # a mesh's faces, with a list property or a type the vertex may not
        # have, parse as their vertices in either layout
        trailers = [
            (b"element face 1\nproperty uchar red\n", b"0\n", b"\x00"),
            (b"element face 1\nproperty list uchar int vertex_indices\n", b"3 0 0 0\n",
             b"\x03" + bytes(12)),
            (b"element face 1\nproperty int flags\n", b"7\n", (7).to_bytes(4, "little")),
        ]
        for trailer, ascii_body, binary_body in trailers:
            for layout, name, body in [
                (CloudFormat.PLY_ASCII, b"ascii", b"1 2 3\n" + ascii_body),
                (CloudFormat.PLY_BINARY_LE, b"binary_little_endian",
                 np.array([1, 2, 3], "<f4").tobytes() + binary_body),
            ]:
                data = (
                    b"ply\nformat " + name + b" 1.0\nelement vertex 1\n"
                    b"property float x\nproperty float y\nproperty float z\n"
                    + trailer + b"end_header\n" + body
                )
                assert sniff_format(data) is layout
                cloud = parse_cloud(data, layout)
                assert cloud.xyz.tolist() == [[1, 2, 3]]


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

    @pytest.mark.parametrize("fmt", list(CloudFormat))
    @pytest.mark.parametrize("has_color", [True, False])
    def test_empty_cloud_round_trip(self, fmt, has_color):
        cloud = ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 3)), has_color=has_color)
        data = write_cloud(cloud, fmt)
        assert sniff_format(data) is fmt
        parsed = parse_cloud(data, fmt)
        assert len(parsed) == 0
        assert parsed.has_color == has_color

    @pytest.mark.parametrize("call", [
        lambda fmt: parse_cloud(PLY_ONE_RED, fmt),
        lambda fmt: write_cloud(parse_cloud(PLY_ONE_RED, CloudFormat.PLY_ASCII), fmt),
    ], ids=["parse", "write"])
    @pytest.mark.parametrize("fmt", ["ply", None])
    def test_format_that_is_not_a_cloud_format_rejected(self, call, fmt):
        with pytest.raises(InvalidParamsError, match="PLY_ASCII, PLY_BINARY_LE, PCD_ASCII"):
            call(fmt)

    @pytest.mark.parametrize("fmt", list(CloudFormat))
    @pytest.mark.parametrize("has_color", [True, False])
    def test_coordinates_beyond_float32_rejected(self, fmt, has_color):
        # finite float64 values that round past float32's largest value; the
        # largest value itself (point 2) is written as it is
        largest = float(np.finfo(np.float32).max)
        xyz = [[0, 0, 0], [0, 1e39, 0], [largest, -largest, 0], [-4e38, 0, 0]]
        cloud = ColoredPointCloud(xyz, np.full((4, 3), 0.5), has_color=has_color)
        with pytest.raises(InvalidParamsError, match=r"2 point\(s\) overflow float32.*first at point 1"):
            write_cloud(cloud, fmt)


def per_value_body(cloud, fmt):
    """The ASCII records formatted one value at a time: float32, then '%.9g'."""

    def f32(value):
        return f"{float(np.float32(value)):.9g}"

    colors = np.clip(np.rint(cloud.rgb * 255.0), 0, 255).astype(np.uint8)
    rows = []
    for i in range(len(cloud)):
        row = " ".join(f32(v) for v in cloud.xyz[i])
        if cloud.has_color and fmt is CloudFormat.PLY_ASCII:
            row += " " + " ".join(str(int(c)) for c in colors[i])
        elif cloud.has_color:
            red, green, blue = (int(c) for c in colors[i])
            packed = np.uint32((red << 16) | (green << 8) | blue)
            row += " " + f32(packed.view(np.float32))
        rows.append(row)
    return "\n".join(rows) + "\n"


def finite_float32_patterns(rng, n):
    """n random finite float32 values, drawn as bit patterns (subnormals included)."""
    bits = rng.integers(0, 2**32, size=3 * n, dtype=np.uint64).astype(np.uint32)
    values = bits.view(np.float32)
    return values[np.isfinite(values)][:n].astype(np.float64)


def float32_edge_values():
    tiny, small, big = 1e-45, float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
    powers = [float(2**k) for k in range(25)] + [2.0**24 - 1, 2.0**24 + 1, 12345678.0]
    values = [0.0, -0.0, tiny, -tiny, small, -small, big, -big] + powers
    return np.array(values + [-v for v in powers])


class TestAsciiRecords:
    @pytest.mark.parametrize("fmt", [CloudFormat.PLY_ASCII, CloudFormat.PCD_ASCII])
    @pytest.mark.parametrize("has_color", [True, False])
    def test_body_equals_per_value_formatting(self, rng, fmt, has_color):
        end_of_header = "end_header\n" if fmt is CloudFormat.PLY_ASCII else "DATA ascii\n"
        clouds = []
        for _ in range(20):
            n = int(rng.integers(1, 150))
            xyz = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 31)
            xyz[0, 0] = -0.0
            clouds.append(ColoredPointCloud(xyz, rng.uniform(0, 1, size=(n, 3)),
                                            has_color=has_color))
        # longer than one formatting block, every value a random float32
        n = cloudio._BLOCK_ROWS + 7
        xyz = finite_float32_patterns(rng, 3 * n).reshape(n, 3)
        clouds.append(ColoredPointCloud(xyz, rng.uniform(0, 1, size=(n, 3)),
                                        has_color=has_color))
        # float32 edge values in every coordinate; colors on and between byte steps
        edges = float32_edge_values()
        xyz = np.column_stack([edges, edges[::-1], np.roll(edges, 5)])
        rgb = (np.arange(3 * len(edges)).reshape(-1, 3) % 511 / 2) / 255.0
        clouds.append(ColoredPointCloud(xyz, rgb, has_color=has_color))
        for cloud in clouds:
            text = write_cloud(cloud, fmt).decode("ascii")
            assert text.split(end_of_header, 1)[1] == per_value_body(cloud, fmt)


class TestFormatRows:
    def test_conversion_follows_each_columns_dtype(self):
        # integers of 10 digits and more tell '%d' from '%.9g'
        columns = [np.array([0, 255], dtype=np.uint8), np.array([-3, 2**40], dtype=np.int64),
                   np.array([1, 2**32 - 1], dtype=np.uint32),
                   np.array([0.1, -0.0], dtype=np.float32), np.array([1 / 3, 1e300])]
        assert cloudio.format_rows(columns, " ") == (
            "0 -3 1 0.100000001 0.333333333\n255 1099511627776 4294967295 -0 1e+300\n")

    def test_python_values_take_their_columns_dtype(self):
        assert cloudio.format_rows([[7], [0.5]], ",") == "7,0.5\n"
        assert cloudio.format_rows([[2, 2.5], [1, 3]], ";") == "2;1\n2.5;3\n"

    def test_no_rows(self):
        assert cloudio.format_rows([np.zeros(0, dtype=np.uint8), np.zeros(0)], ",") == ""


class TestWrittenBytes:
    def test_probe_room_files_match_pinned_digests(self, probe_room):
        pinned = json.loads((DATA_DIR / "probe_room_sha256.json").read_text())
        colorless = ColoredPointCloud(probe_room.xyz, np.zeros_like(probe_room.rgb),
                                      has_color=False)
        for cloud, key in ((probe_room, "sha256"), (colorless, "sha256_colorless")):
            digests = {fmt.value: hashlib.sha256(write_cloud(cloud, fmt)).hexdigest()
                       for fmt in CloudFormat}
            assert digests == pinned[key], key


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

    def test_duplicate_field_rejected(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z x\nSIZE 4 4 4 4\nTYPE F F F F\n"
            b"COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            b"POINTS 1\nDATA ascii\n1 2 3 9\n"
        )
        with pytest.raises(MalformedHeaderError, match="duplicate"):
            parse_cloud(data, CloudFormat.PCD_ASCII)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_line_breaks(self, newline):
        data = (
            b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
            b"1 2 3\n4 5 6\n"
        ).replace(b"\n", newline)
        cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert np.array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])

    def test_non_ascii_body_rejected_typed(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"WIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA ascii\n"
            b"1 2 \xff\n"
        )
        with pytest.raises(CloudFormatError):
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

    @pytest.mark.filterwarnings("error")
    def test_binary_ply_signalling_nan_rejected_without_warning(self, rng):
        cloud = float32_valued_cloud(rng, 3)
        data = write_cloud(cloud, CloudFormat.PLY_BINARY_LE)
        body = np.frombuffer(data[-len(cloud) * 15:], dtype=[("xyz", "<u4", 3), ("rgb", "u1", 3)]).copy()
        body["xyz"][1, 2] = 0x7FA00000  # exponent all ones, quiet bit clear
        broken = data[: -len(cloud) * 15] + body.tobytes()
        with pytest.raises(NonFiniteValueError):
            parse_cloud(broken, CloudFormat.PLY_BINARY_LE)

    @pytest.mark.parametrize("layout, header, rows, field, record", [
        (CloudFormat.PLY_ASCII, PLY_THREE_HEADER, b"0 0 0 1 2 3\n1e300 0 0 1 2 3\n0 0 1 1 2 3\n",
         "x", 1),
        (CloudFormat.PCD_ASCII, PCD_THREE_HEADER, b"0 0 0 0\n1 0 0 0\n0 1 -1e39 0\n", "z", 2),
        (CloudFormat.PCD_ASCII, PCD_THREE_HEADER, b"0 0 0 1e300\n1 0 0 0\n0 1 0 0\n", "rgb", 0),
    ], ids=["ply-x", "pcd-z", "pcd-rgb"])
    def test_ascii_float_beyond_float32_rejected_typed(self, layout, header, rows, field, record):
        # a warning here would be an error: the suite turns warnings into failures
        with pytest.raises(CloudFormatError, match=f"'{field}' of record {record} .*float32") as raised:
            parse_cloud(header + rows, layout)
        assert not isinstance(raised.value, NonFiniteValueError)

    @pytest.mark.parametrize("rows, message", [
        (b"0 0 0 1 300 3\n1e300 0 0 1 2 3\n0 0 0 1 2 3\n",
         "uchar property 'green' of record 0 is 300, not an integer in 0..255"),
        (b"0 0 0 1 2 3\n0 0 1e300 1 2 3\n0 0 0 1.5 2 3\n",
         "float property 'z' of record 1 is 1e+300, beyond float32's range"),
    ], ids=["uchar-first", "float-first"])
    def test_ascii_earliest_bad_record_named(self, rows, message):
        # either kind of bad value may come first; the error names the earlier record
        with pytest.raises(CloudFormatError) as raised:
            parse_cloud(PLY_THREE_HEADER + rows, CloudFormat.PLY_ASCII)
        assert str(raised.value) == message

    def test_ascii_double_beyond_float32_kept(self):
        data = PLY_THREE_HEADER.replace(b"float x", b"double x") + b"1e300 0 0 1 2 3\n" * 3
        assert parse_cloud(data, CloudFormat.PLY_ASCII).xyz[0, 0] == 1e300

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

    def test_pcd_after_long_comments(self, rng):
        data = b"# padding comment\n" * 300 + write_cloud(float32_valued_cloud(rng, 10),
                                                         CloudFormat.PCD_ASCII)
        assert data.index(b"FIELDS") > 5000
        assert sniff_format(data) is CloudFormat.PCD_ASCII

    def test_ply_layout_from_its_format_line_not_a_comment(self):
        data = PLY_ONE_RED.replace(
            b"format ascii 1.0\n",
            b"comment converted from format binary_little_endian 1.0\nformat ascii 1.0\n")
        assert sniff_format(data) is CloudFormat.PLY_ASCII
        assert len(parse_cloud(data, CloudFormat.PLY_ASCII)) == 1

    def test_ply_format_line_after_long_comments(self, rng):
        data = write_cloud(float32_valued_cloud(rng, 10), CloudFormat.PLY_BINARY_LE)
        data = data.replace(b"ply\n", b"ply\n" + b"comment padding\n" * 400, 1)
        assert sniff_format(data) is CloudFormat.PLY_BINARY_LE

    @pytest.mark.parametrize("data", [
        b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n",
        b"ply\nformat ascii 1.0\nformat binary_little_endian 1.0\nend_header\n",
        b"ply\nelement vertex 0\nend_header\n",
        b"VERSION 0.7\nDATA ascii\nFIELDS x y z\n",
        b"\xff\xd8\xff\xe0 FIELDS x y z\nDATA ascii\n",
    ], ids=["big-endian", "conflicting", "no-format-line", "data-before-fields", "not-ascii"])
    def test_undeclared_or_unsupported_layout_rejected(self, data):
        with pytest.raises(MalformedHeaderError):
            sniff_format(data)

    @pytest.mark.parametrize("read", [sniff_format,
                                      lambda data: parse_cloud(data, CloudFormat.PLY_ASCII)],
                             ids=["sniff", "parse"])
    @pytest.mark.parametrize("edit, error, message", [
        ((b"end_header\n", b"end_header"), MalformedHeaderError,
         "header terminator not followed by a newline"),
        ((b"element vertex", b"property float w\nelement vertex"), MalformedHeaderError,
         "property declared before any element"),
        ((b"element vertex", b"element camera 1\nproperty float w\nelement vertex"),
         UnsupportedPropertyError, "non-empty elements before vertex are not supported"),
        ((b"property uchar red", b"property float x\nproperty uchar red"),
         MalformedHeaderError, "duplicate vertex property"),
    ], ids=["no-newline-after-terminator", "property-before-element",
            "element-before-vertex", "duplicate-property"])
    def test_bad_ply_header_rejected_typed(self, read, edit, error, message):
        # the body is dropped: each of these fails on the header alone
        data = (PLY_ONE_RED.split(b"end_header\n")[0] + b"end_header\n").replace(*edit)
        with pytest.raises(error, match=message):
            read(data)

    @pytest.mark.parametrize("read", [sniff_format,
                                      lambda data: parse_cloud(data, CloudFormat.PCD_ASCII)],
                             ids=["sniff", "parse"])
    def test_header_walk_stops_at_first_line_that_is_not_a_header_line(self, monkeypatch, read):
        lines_read = []
        pattern = cloudio._LINE_BREAK

        class CountingBreaks:
            def search(self, data, position):
                lines_read.append(position)
                return pattern.search(data, position)

        monkeypatch.setattr(cloudio, "_LINE_BREAK", CountingBreaks())
        data = b"# comment\nVERSION 0.7\n" + b"v 0.1 0.2 0.3\n" * 1000
        with pytest.raises(MalformedHeaderError) as raised:
            read(data)
        assert len(lines_read) == 3
        assert "'v 0.1 0.2 0.3'" in str(raised.value)


class TestPcdHeaderKeys:
    @pytest.mark.parametrize("line", [b"FOO 1", b"", b"1 2 3 0"],
                             ids=["unknown-key", "blank", "record"])
    def test_line_before_data_that_is_not_a_header_line_rejected(self, rng, line):
        data = write_cloud(float32_valued_cloud(rng, 3), CloudFormat.PCD_ASCII)
        data = data.replace(b"POINTS", line + b"\nPOINTS", 1)
        with pytest.raises(MalformedHeaderError, match="not a pcd header line"):
            parse_cloud(data, CloudFormat.PCD_ASCII)
        with pytest.raises(MalformedHeaderError, match="unrecognized point-cloud file"):
            sniff_format(data)

    def test_lower_case_keys_and_comments_accepted(self, rng):
        cloud = float32_valued_cloud(rng, 3)
        data = write_cloud(cloud, CloudFormat.PCD_ASCII)
        data = b"# a comment\n" + data.replace(b"VERSION", b"version").replace(
            b"DATA ascii\n", b"#another\nData ascii\n")
        assert sniff_format(data) is CloudFormat.PCD_ASCII
        parsed = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert np.array_equal(parsed.xyz, cloud.xyz)
        assert np.array_equal(parsed.rgb, cloud.rgb)


class TestColorRules:
    """Each format decides has_color from its own declarations."""

    def test_pcd_separate_channel_fields_stay_colorless(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z red green blue\nSIZE 4 4 4 1 1 1\n"
            b"TYPE F F F U U U\nCOUNT 1 1 1 1 1 1\nWIDTH 2\nHEIGHT 1\n"
            b"VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
            b"1 2 3 255 0 0\n4 5 6 0 255 0\n"
        )
        cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert not cloud.has_color
        assert np.array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(cloud.rgb, np.zeros((2, 3)))

    def test_empty_pcd_with_rgb_keeps_color(self):
        data = (
            b"VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F F\n"
            b"COUNT 1 1 1 1\nWIDTH 0\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            b"POINTS 0\nDATA ascii\n"
        )
        cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
        assert len(cloud) == 0
        assert cloud.has_color

    def test_empty_ply_with_colors_keeps_color(self):
        data = PLY_ONE_RED.replace(b"element vertex 1", b"element vertex 0")
        cloud = parse_cloud(data.replace(b"0 0 0 255 0 0\n", b""), CloudFormat.PLY_ASCII)
        assert len(cloud) == 0
        assert cloud.has_color


# A stored copy of the ASCII value path the parsers used before they shared one
# record reader: tokens -> float64, float32-typed columns snapped, then xyz
# stacked and colors decoded (PLY: red/green/blue bytes; PCD: packed rgb).


def reference_ply_ascii(body: bytes, count, props):
    tokens = body.split()
    values = np.array(tokens[: count * len(props)], dtype=np.float64).reshape(count, len(props))
    table = {}
    for column, (name, code) in enumerate(props):
        col = values[:, column]
        if code == "<f4":
            col = col.astype(np.float32).astype(np.float64)
        table[name] = col
    xyz = np.column_stack([table["x"], table["y"], table["z"]]) if count else np.zeros((0, 3))
    has_color = all(name in table for name in ("red", "green", "blue"))
    if has_color and count:
        rgb = np.column_stack([table[c] for c in ("red", "green", "blue")]) / 255.0
    else:
        rgb = np.zeros((count, 3))
    return xyz, rgb, has_color


def reference_pcd(body_lines, n_points, fields, layout):
    tokens = " ".join(body_lines).split()
    values = np.array(tokens[: n_points * len(fields)], dtype=np.float64).reshape(
        n_points, len(fields))
    columns = {}
    for column, name in enumerate(fields):
        col = values[:, column]
        if layout[name] == ("F", "4"):
            col = col.astype(np.float32).astype(np.float64)
        columns[name] = col
    xyz = np.column_stack([columns["x"], columns["y"], columns["z"]]) if n_points else np.zeros((0, 3))
    has_color = "rgb" in layout
    if has_color and n_points:
        packed = columns["rgb"].astype(np.float32).view(np.uint32)
        rgb = np.column_stack(
            [(packed >> 16) & 0xFF, (packed >> 8) & 0xFF, packed & 0xFF]
        ).astype(np.float64) / 255.0
    else:
        rgb = np.zeros((n_points, 3))
    return xyz, rgb, has_color


def random_float_tokens(rng, n):
    """Decimal tokens of random magnitude, written at random precision."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    styles = ("{:.17g}", "{:.9g}", "{:.3f}", "{:e}", "{:.0f}")
    return [styles[rng.integers(len(styles))].format(v) for v in values]


def random_ply_ascii(rng):
    count = int(rng.integers(0, 20))
    props = [(axis, ("<f4", "<f8")[rng.integers(2)]) for axis in ("x", "y", "z")]
    if rng.random() < 0.7:
        props += [(c, "u1") for c in ("red", "green", "blue")]
    if rng.random() < 0.5:
        props.append(("intensity", ("<f4", "<f8")[rng.integers(2)]))
    props = [props[i] for i in rng.permutation(len(props))]
    names = {"<f4": "float", "<f8": "double", "u1": "uchar"}
    header = ["ply", "format ascii 1.0", f"element vertex {count}"]
    header += [f"property {names[code]} {name}" for name, code in props]
    columns = [
        [str(v) for v in rng.integers(0, 256, size=count)] if code == "u1"
        else random_float_tokens(rng, count)
        for _, code in props
    ]
    rows = [" ".join(record) for record in zip(*columns)]
    body = ("\n".join(rows) + "\n").encode() if rows else b""
    return ("\n".join(header) + "\nend_header\n").encode() + body, body, count, props


def random_pcd(rng):
    n = int(rng.integers(0, 20))
    layout = {axis: ("F", ("4", "8")[rng.integers(2)]) for axis in ("x", "y", "z")}
    if rng.random() < 0.6:
        layout["rgb"] = ("F", "4")
    if rng.random() < 0.3:
        layout.update({c: ("U", "1") for c in ("red", "green", "blue")})
    if rng.random() < 0.4:
        layout["intensity"] = ("F", ("4", "8")[rng.integers(2)])
    fields = [list(layout)[i] for i in rng.permutation(len(layout))]
    columns = []
    for name in fields:
        if name == "rgb":
            packed = rng.integers(0, 1 << 24, size=n).astype(np.uint32).view(np.float32)
            columns.append([f"{float(v):.9g}" for v in packed])
        elif layout[name][0] == "U":
            columns.append([str(v) for v in rng.integers(0, 256, size=n)])
        else:
            columns.append(random_float_tokens(rng, n))
    body_lines = [" ".join(record) for record in zip(*columns)]
    header = [
        "VERSION 0.7",
        "FIELDS " + " ".join(fields),
        "SIZE " + " ".join(layout[f][1] for f in fields),
        "TYPE " + " ".join(layout[f][0] for f in fields),
        "COUNT " + " ".join("1" for _ in fields),
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        "DATA ascii",
    ]
    data = ("\n".join(header + body_lines) + "\n").encode()
    return data, body_lines, n, fields, layout


class TestAsciiParseMatchesReference:
    """PLY ASCII and PCD parse bit-identical xyz/rgb to the stored value path."""

    def assert_same(self, cloud, expected):
        xyz, rgb, has_color = expected
        assert cloud.has_color == has_color
        assert cloud.xyz.tobytes() == xyz.astype(np.float64).tobytes()
        assert cloud.rgb.tobytes() == rgb.astype(np.float64).tobytes()

    def test_ply_ascii(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            data, body, count, props = random_ply_ascii(rng)
            cloud = parse_cloud(data, CloudFormat.PLY_ASCII)
            self.assert_same(cloud, reference_ply_ascii(body, count, props))

    def test_pcd(self):
        rng = np.random.default_rng(62)
        for _ in range(1000):
            data, body_lines, n, fields, layout = random_pcd(rng)
            cloud = parse_cloud(data, CloudFormat.PCD_ASCII)
            self.assert_same(cloud, reference_pcd(body_lines, n, fields, layout))
