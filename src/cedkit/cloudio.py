"""Read and write point-cloud files in PLY and PCD layouts.

Supported layouts:

- PLY ASCII and PLY binary (little endian): header ``ply`` /
  ``format ascii 1.0`` or ``format binary_little_endian 1.0``, one ``vertex``
  element with scalar properties. Coordinates are ``float`` (or ``double``)
  x, y, z; colors are optional ``uchar`` red, green, blue.
- PCD ASCII: ``FIELDS x y z`` or ``FIELDS x y z rgb``, where ``rgb`` is the
  packed-float encoding (three color bytes stored in the low 24 bits of a
  float32 bit pattern).

Files store 32-bit coordinates, so parsing snaps every float-typed value to
float32 before widening to the internal float64 representation, and writing
quantizes the same way. As a result write-then-parse is the identity on any
cloud whose values came from a file (or are otherwise float32-representable),
bit-exactly for the binary layout and through a 9-significant-digit decimal
for the ASCII layouts. Colors are quantized to 8 bits with round(channel*255)
on write and mapped back as byte/255 on parse.

Mesh faces, big-endian PLY, and organized (image-grid) clouds are out of
scope; trailing elements after the vertex data are ignored.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .cloud import ColoredPointCloud, require_finite
from .errors import (
    CloudFormatError,
    EmptyCloudError,
    MalformedHeaderError,
    TruncatedBodyError,
    UnsupportedPropertyError,
)


class CloudFormat(Enum):
    PLY_ASCII = "ply"
    PLY_BINARY_LE = "ply-bin"
    PCD_ASCII = "pcd"


# PLY scalar property types we can lay out; everything else is rejected.
_PLY_TYPES = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "uchar": "u1",
    "uint8": "u1",
}

_COLOR_NAMES = ("red", "green", "blue")


def parse_cloud(data: bytes, fmt: CloudFormat, resolution: float = 0.01) -> ColoredPointCloud:
    """Parse file bytes of the declared format into a cloud.

    Args:
        data: complete file contents.
        fmt: declared layout; a header that contradicts it is rejected.
        resolution: sampling pitch recorded on the result (files carry none).

    Returns:
        A cloud with one point per vertex record, in file order. has_color is set
        iff red/green/blue are all present; otherwise colors default to 0.

    Raises:
        MalformedHeaderError: unreadable or contradictory declarations.
        TruncatedBodyError: fewer records than declared.
        UnsupportedPropertyError: property type or layout outside scope.
        NonFiniteValueError: a coordinate or color is NaN or infinite.
    """
    if fmt in (CloudFormat.PLY_ASCII, CloudFormat.PLY_BINARY_LE):
        return _parse_ply(data, fmt, resolution)
    if fmt is CloudFormat.PCD_ASCII:
        return _parse_pcd(data, resolution)
    raise ValueError(f"unknown format {fmt!r}")


def write_cloud(cloud: ColoredPointCloud, fmt: CloudFormat) -> bytes:
    """Serialize a non-empty cloud; parse_cloud(write_cloud(c, f), f) round-trips."""
    if len(cloud) == 0:
        raise EmptyCloudError("refusing to write an empty cloud")
    if fmt is CloudFormat.PLY_ASCII:
        return _write_ply_ascii(cloud)
    if fmt is CloudFormat.PLY_BINARY_LE:
        return _write_ply_binary(cloud)
    if fmt is CloudFormat.PCD_ASCII:
        return _write_pcd(cloud)
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(data: bytes) -> CloudFormat:
    """Guess the layout of file bytes from magic lines; raises if unrecognized."""
    head = data[:4096]
    if head.startswith(b"ply"):
        if b"format binary_little_endian" in head:
            return CloudFormat.PLY_BINARY_LE
        if b"format ascii" in head:
            return CloudFormat.PLY_ASCII
        raise MalformedHeaderError("ply magic without a recognized format line")
    if b"FIELDS" in head and b"DATA" in head:
        return CloudFormat.PCD_ASCII
    raise MalformedHeaderError("unrecognized point-cloud file")


def _quantize_colors(rgb: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def _format_f32(value: float) -> str:
    # 9 significant digits uniquely identify a float32.
    return f"{float(np.float32(value)):.9g}"


# ---------------------------------------------------------------------------
# PLY


def _parse_ply_header(data: bytes, fmt: CloudFormat):
    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise MalformedHeaderError("not a ply file (missing magic or end_header)")
    newline = data.find(b"\n", end)
    if newline < 0:
        raise MalformedHeaderError("header terminator not followed by a newline")
    body_start = newline + 1

    try:
        header = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError("header is not ascii") from exc

    declared = "ascii" if fmt is CloudFormat.PLY_ASCII else "binary_little_endian"
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    format_seen = False
    for raw in header.splitlines()[1:]:
        line = raw.strip()
        if not line or line.startswith(("comment", "obj_info")):
            continue
        tokens = line.split()
        if tokens[0] == "format":
            if len(tokens) < 3 or tokens[1] != declared:
                raise MalformedHeaderError(
                    f"file format line {line!r} does not match declared {declared}"
                )
            format_seen = True
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise MalformedHeaderError(f"unreadable element line {line!r}")
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MalformedHeaderError("property declared before any element")
            if tokens[1] == "list":
                raise UnsupportedPropertyError("list properties are not supported")
            if len(tokens) != 3:
                raise MalformedHeaderError(f"unreadable property line {line!r}")
            ptype, pname = tokens[1], tokens[2]
            if ptype not in _PLY_TYPES:
                raise UnsupportedPropertyError(f"property type {ptype!r} not supported")
            elements[-1][2].append((pname, _PLY_TYPES[ptype]))
        else:
            raise MalformedHeaderError(f"unreadable header line {line!r}")
    if not format_seen:
        raise MalformedHeaderError("header carries no format line")
    return elements, body_start


def _vertex_layout(elements):
    for position, (name, count, props) in enumerate(elements):
        if name == "vertex":
            if position > 0 and any(c > 0 for _, c, _ in elements[:position]):
                raise UnsupportedPropertyError(
                    "non-empty elements before vertex are not supported"
                )
            names = [p for p, _ in props]
            if any(names.count(p) > 1 for p in names):
                raise MalformedHeaderError("duplicate vertex property")
            for axis in ("x", "y", "z"):
                if axis not in names:
                    raise MalformedHeaderError(f"vertex element lacks property {axis!r}")
            return count, props
    raise MalformedHeaderError("no vertex element declared")


def _extract_columns(table: dict[str, np.ndarray], count: int, resolution: float):
    xyz = np.column_stack([table["x"], table["y"], table["z"]]) if count else np.zeros((0, 3))
    require_finite(xyz, "coordinates")
    has_color = all(name in table for name in _COLOR_NAMES)
    if has_color and count:
        rgb = np.column_stack([table[c] for c in _COLOR_NAMES]) / 255.0
        require_finite(rgb, "colors")
    else:
        rgb = np.zeros((count, 3))
    return ColoredPointCloud(xyz, rgb, resolution, has_color)


def _parse_ply(data: bytes, fmt: CloudFormat, resolution: float) -> ColoredPointCloud:
    elements, body_start = _parse_ply_header(data, fmt)
    count, props = _vertex_layout(elements)

    if fmt is CloudFormat.PLY_BINARY_LE:
        dtype = np.dtype([(name, code) for name, code in props])
        body = data[body_start:]
        if len(body) < count * dtype.itemsize:
            raise TruncatedBodyError(
                f"need {count * dtype.itemsize} body bytes, have {len(body)}"
            )
        records = np.frombuffer(body, dtype=dtype, count=count)
        table = {name: records[name].astype(np.float64) for name, _ in props}
        return _extract_columns(table, count, resolution)

    tokens = data[body_start:].split()
    needed = count * len(props)
    if len(tokens) < needed:
        raise TruncatedBodyError(f"need {needed} body tokens, have {len(tokens)}")
    try:
        values = np.array(tokens[:needed], dtype=np.float64).reshape(count, len(props))
    except ValueError as exc:
        raise CloudFormatError(f"unparseable vertex record: {exc}") from exc
    table = {}
    for column, (name, code) in enumerate(props):
        col = values[:, column]
        if code == "<f4":
            col = col.astype(np.float32).astype(np.float64)
        table[name] = col
    return _extract_columns(table, count, resolution)


def _ply_header(cloud: ColoredPointCloud, format_line: str) -> list[str]:
    lines = [
        "ply",
        format_line,
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if cloud.has_color:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    return lines


def _write_ply_ascii(cloud: ColoredPointCloud) -> bytes:
    lines = _ply_header(cloud, "format ascii 1.0")
    bytes_rgb = _quantize_colors(cloud.rgb)
    for i in range(len(cloud)):
        row = " ".join(_format_f32(v) for v in cloud.xyz[i])
        if cloud.has_color:
            row += " " + " ".join(str(int(c)) for c in bytes_rgb[i])
        lines.append(row)
    return ("\n".join(lines) + "\n").encode("ascii")


def _write_ply_binary(cloud: ColoredPointCloud) -> bytes:
    header = "\n".join(_ply_header(cloud, "format binary_little_endian 1.0")) + "\n"
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if cloud.has_color:
        fields += [(c, "u1") for c in _COLOR_NAMES]
    records = np.empty(len(cloud), dtype=np.dtype(fields))
    for axis, name in enumerate(("x", "y", "z")):
        records[name] = cloud.xyz[:, axis].astype(np.float32)
    if cloud.has_color:
        bytes_rgb = _quantize_colors(cloud.rgb)
        for channel, name in enumerate(_COLOR_NAMES):
            records[name] = bytes_rgb[:, channel]
    return header.encode("ascii") + records.tobytes()


# ---------------------------------------------------------------------------
# PCD


def _parse_pcd(data: bytes, resolution: float) -> ColoredPointCloud:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError("pcd file is not ascii") from exc

    meta: dict[str, list[str]] = {}
    body_lines: list[str] = []
    in_body = False
    for line in text.splitlines():
        if in_body:
            body_lines.append(line)
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        meta[tokens[0].upper()] = tokens[1:]
        if tokens[0].upper() == "DATA":
            in_body = True

    for key in ("FIELDS", "SIZE", "TYPE", "POINTS", "DATA"):
        if key not in meta:
            raise MalformedHeaderError(f"pcd header lacks {key}")
    if meta["DATA"] != ["ascii"]:
        raise MalformedHeaderError("only DATA ascii is supported")
    fields = meta["FIELDS"]
    sizes = meta["SIZE"]
    types = meta["TYPE"]
    if len(sizes) != len(fields) or len(types) != len(fields):
        raise MalformedHeaderError("FIELDS/SIZE/TYPE lengths disagree")
    counts = meta.get("COUNT", ["1"] * len(fields))
    if any(c != "1" for c in counts):
        raise UnsupportedPropertyError("multi-count pcd fields are not supported")
    try:
        n_points = int(meta["POINTS"][0])
    except (ValueError, IndexError) as exc:
        raise MalformedHeaderError("unreadable POINTS line") from exc
    if "WIDTH" in meta and "HEIGHT" in meta:
        try:
            if int(meta["WIDTH"][0]) * int(meta["HEIGHT"][0]) != n_points:
                raise MalformedHeaderError("WIDTH*HEIGHT does not match POINTS")
        except (ValueError, IndexError) as exc:
            raise MalformedHeaderError("unreadable WIDTH/HEIGHT") from exc

    layout = {}
    for name, size, typ in zip(fields, sizes, types):
        layout[name] = (typ, size)
    for axis in ("x", "y", "z"):
        if axis not in layout:
            raise MalformedHeaderError(f"pcd header lacks field {axis!r}")
        if layout[axis][0] != "F" or layout[axis][1] not in ("4", "8"):
            raise UnsupportedPropertyError(f"field {axis!r} must be F4 or F8")
    has_color = "rgb" in layout
    if has_color and layout["rgb"] != ("F", "4"):
        raise UnsupportedPropertyError("field 'rgb' must be the packed F4 encoding")

    tokens = " ".join(body_lines).split()
    needed = n_points * len(fields)
    if len(tokens) < needed:
        raise TruncatedBodyError(f"need {needed} body tokens, have {len(tokens)}")
    try:
        values = np.array(tokens[:needed], dtype=np.float64).reshape(n_points, len(fields))
    except ValueError as exc:
        raise CloudFormatError(f"unparseable pcd record: {exc}") from exc

    columns = {}
    for column, name in enumerate(fields):
        col = values[:, column]
        if layout[name] == ("F", "4"):
            col = col.astype(np.float32).astype(np.float64)
        columns[name] = col
    xyz = np.column_stack([columns["x"], columns["y"], columns["z"]]) if n_points else np.zeros((0, 3))
    require_finite(xyz, "coordinates")
    if has_color and n_points:
        require_finite(columns["rgb"][:, None], "colors")
        packed = columns["rgb"].astype(np.float32).view(np.uint32)
        rgb = np.column_stack(
            [(packed >> 16) & 0xFF, (packed >> 8) & 0xFF, packed & 0xFF]
        ).astype(np.float64) / 255.0
    else:
        rgb = np.zeros((n_points, 3))
    return ColoredPointCloud(xyz, rgb, resolution, has_color)


def _write_pcd(cloud: ColoredPointCloud) -> bytes:
    fields = "x y z rgb" if cloud.has_color else "x y z"
    n_fields = 4 if cloud.has_color else 3
    n = len(cloud)
    lines = [
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        f"FIELDS {fields}",
        "SIZE " + " ".join(["4"] * n_fields),
        "TYPE " + " ".join(["F"] * n_fields),
        "COUNT " + " ".join(["1"] * n_fields),
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        "DATA ascii",
    ]
    if cloud.has_color:
        bytes_rgb = _quantize_colors(cloud.rgb).astype(np.uint32)
        packed = (bytes_rgb[:, 0] << 16) | (bytes_rgb[:, 1] << 8) | bytes_rgb[:, 2]
        packed_floats = packed.view(np.float32)
    for i in range(n):
        row = " ".join(_format_f32(v) for v in cloud.xyz[i])
        if cloud.has_color:
            row += " " + _format_f32(packed_floats[i])
        lines.append(row)
    return ("\n".join(lines) + "\n").encode("ascii")
