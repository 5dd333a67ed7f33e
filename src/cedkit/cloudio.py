"""Read and write point-cloud files in PLY and PCD layouts.

Supported layouts:

- PLY ASCII and PLY binary (little endian): header ``ply`` /
  ``format ascii 1.0`` or ``format binary_little_endian 1.0``, one ``vertex``
  element with scalar properties, after any number of empty elements.
  Coordinates are ``float`` (or ``double``) x, y, z; colors are optional
  ``uchar`` red, green, blue. A color property of any other type is
  rejected, and so is an ASCII ``uchar`` value that is not an integer in
  0..255. The properties of elements after vertex are not read, so a mesh
  (say with ``element face`` and a ``property list``) parses as its vertices.
- PCD ASCII: ``FIELDS x y z`` or ``FIELDS x y z rgb``, where ``rgb`` is the
  packed-float encoding (three color bytes stored in the low 24 bits of a
  float32 bit pattern).

Every layout is read the same way. One header reader per format returns the
layout, the record count, the record's fields as (name, numpy type code) in
file order, and the offset of the body. sniff_format is the layout of that
reading, so an invalid header fails there with the parser's error, and
parse_cloud rejects a header whose layout is not the one it is asked for.
One body reader views binary records in place and parses ASCII tokens, and
one step turns the records into a cloud, taking three color bytes from PLY
and the packed rgb float from PCD.

Every writer stores the same record per point: x, y, z as float32 and, when
the cloud has color, red, green and blue bytes of round(channel*255).
Parsing snaps every float-typed value to float32 before widening to the
internal float64 representation, and maps a color byte back as byte/255. As
a result write-then-parse is the identity on any cloud whose values came
from a file (or are otherwise float32-representable), bit-exactly for the
binary layout and through a 9-significant-digit decimal for the ASCII
layouts. An ASCII value of a float-typed field that float32 cannot hold
(1e300, say) raises CloudFormatError naming the field and the record. A
finite coordinate beyond float32's range has no file form, so writing it
raises InvalidParamsError. Files carry no sampling pitch, so a parsed cloud
has resolution 0.01.

Big-endian PLY, binary PCD and organized (image-grid) clouds are out of
scope.
"""

from __future__ import annotations

import re
from contextlib import suppress
from enum import Enum

import numpy as np

from .cloud import ColoredPointCloud, require_finite
from .errors import (
    CloudFormatError,
    InvalidParamsError,
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

_AXES = ("x", "y", "z")
_COLOR_NAMES = ("red", "green", "blue")

_LINE_BREAK = re.compile(rb"\r\n?|\n")


def parse_cloud(data: bytes, fmt: CloudFormat) -> ColoredPointCloud:
    """Parse file bytes of the declared format into a cloud.

    Args:
        data: complete file contents.
        fmt: declared layout; a header that contradicts it is rejected.

    Returns:
        A cloud with one point per vertex record, in file order, and the
        default resolution 0.01 (files carry none). has_color is set iff the
        file declares colors (PLY: red, green and blue; PCD: rgb); otherwise
        colors default to 0.

    Raises:
        MalformedHeaderError: unreadable or contradictory declarations.
        TruncatedBodyError: fewer records than declared.
        UnsupportedPropertyError: property type or layout outside scope.
        CloudFormatError: an ASCII token that is not a number, a uchar value
            that is not an integer in 0..255, or a float value beyond
            float32's range.
        NonFiniteValueError: a coordinate or color is NaN or infinite (the
            cloud's constructor checks; PCD checks its packed rgb float).
        InvalidParamsError: fmt is not a CloudFormat.
    """
    if fmt in (CloudFormat.PLY_ASCII, CloudFormat.PLY_BINARY_LE):
        header = _ply_header
    elif fmt is CloudFormat.PCD_ASCII:
        header = _pcd_header
    else:
        raise _unknown_format(fmt)
    layout, count, fields, start = header(data)
    if layout is not fmt:
        raise MalformedHeaderError(f"header declares {layout.value}, not {fmt.value}")
    return _cloud(_read_records(data, start, count, fields, layout), fields, layout)


def write_cloud(cloud: ColoredPointCloud, fmt: CloudFormat) -> bytes:
    """Serialize a cloud; parse_cloud(write_cloud(c, f), f) round-trips.

    An empty cloud is written as a header that declares 0 records. Raises
    InvalidParamsError for a coordinate that overflows float32, or for a fmt
    that is not a CloudFormat.
    """
    if fmt in (CloudFormat.PLY_ASCII, CloudFormat.PLY_BINARY_LE):
        return _write_ply(cloud, fmt)
    if fmt is CloudFormat.PCD_ASCII:
        return _write_pcd(cloud)
    raise _unknown_format(fmt)


def _unknown_format(fmt) -> InvalidParamsError:
    names = ", ".join(f.name for f in CloudFormat)
    return InvalidParamsError(f"fmt must be a CloudFormat ({names}), got {fmt!r}")


def sniff_format(data: bytes) -> CloudFormat:
    """The layout that the file's header declares, the header read and checked
    as parse_cloud reads it; an invalid header raises the parser's error.

    A file with the ``ply`` magic has the layout that its header's format line
    names; any other file is read as a PCD ASCII header.
    """
    return (_ply_header if data.startswith(b"ply") else _pcd_header)(data)[0]


def _read_records(data: bytes, start: int, count: int, fields, layout: CloudFormat):
    """The first count records of the body at start, by field name: a
    structured array on the bytes (binary PLY) or float64 columns parsed from
    whitespace-separated tokens (ASCII).

    fields lists (name, numpy type code) in record order. An ASCII "<f4" value
    is snapped to float32, and a "u1" value must be an integer in 0..255; a
    finite value that float32 cannot hold, or a bad byte, raises
    CloudFormatError naming the field and the record. A non-finite value is
    left to the cloud's finite check, so it still reads as NonFiniteValueError.
    """
    if layout is CloudFormat.PLY_BINARY_LE:
        dtype = np.dtype(fields)
        if len(data) - start < count * dtype.itemsize:
            raise TruncatedBodyError(
                f"need {count * dtype.itemsize} body bytes, have {len(data) - start}")
        return np.frombuffer(data, dtype=dtype, count=count, offset=start)
    tokens = data[start:].split()
    needed = count * len(fields)
    if len(tokens) < needed:
        raise TruncatedBodyError(f"need {needed} body tokens, have {len(tokens)}")
    try:
        values = np.array(tokens[:needed], dtype=np.float64).reshape(count, len(fields))
    except ValueError as exc:
        raise CloudFormatError(f"unparseable record: {exc}") from exc
    single = [column for column, (_, code) in enumerate(fields) if code == "<f4"]
    uchar = [column for column, (_, code) in enumerate(fields) if code == "u1"]
    block = values[:, uchar]
    # a non-finite value is left to the cloud's finite check
    fits = (block >= 0) & (block <= 255) & (np.rint(block) == block) | ~np.isfinite(block)
    if fits.all():
        # a float32 overflow leaves this block for the search below
        with suppress(FloatingPointError), np.errstate(over="raise"):
            # "<f4" values are rounded to float32 and widened back, as the files store them
            return {name: values[:, column].astype(np.float32).astype(np.float64)
                    if code == "<f4" else values[:, column]
                    for column, (name, code) in enumerate(fields)}
    # the first bad value in record order
    bad = np.zeros(values.shape, dtype=bool)
    bad[:, uchar] = ~fits
    with np.errstate(over="ignore"):
        bad[:, single] = np.isinf(values[:, single].astype(np.float32))
    bad &= np.isfinite(values)
    row, column = np.argwhere(bad)[0]
    name, code = fields[column]
    kind, rule = (("uchar", "not an integer in 0..255") if code == "u1"
                  else ("float", "beyond float32's range"))
    raise CloudFormatError(
        f"{kind} property {name!r} of record {row} is {values[row, column]:g}, {rule}")


def _cloud(table, fields, layout: CloudFormat) -> ColoredPointCloud:
    """The cloud from the records' x, y, z and colors: the red, green and blue
    bytes of a PLY file that declares all three, the packed rgb float of a PCD
    file that declares it. Every value is widened to float64 as it is copied."""
    names = dict(fields)
    xyz = np.empty((len(table["x"]), 3))
    # widening a signalling NaN warns; the cloud's finite check decides
    with np.errstate(invalid="ignore"):
        for axis, name in enumerate(_AXES):
            xyz[:, axis] = table[name]
    if layout is CloudFormat.PCD_ASCII and "rgb" in names:
        # the packed float's low 24 bits hold the red, green and blue bytes,
        # which are finite even when the float read from the file is not
        require_finite(table["rgb"][:, None], "colors")
        packed = table["rgb"].astype(np.float32).view(np.uint32)
        colors = [(packed >> shift) & 0xFF for shift in (16, 8, 0)]
    elif layout is not CloudFormat.PCD_ASCII and all(name in names for name in _COLOR_NAMES):
        colors = [table[name] for name in _COLOR_NAMES]
    else:
        colors = []
    rgb = np.zeros_like(xyz)
    for channel, column in enumerate(colors):
        rgb[:, channel] = column
    rgb /= 255.0
    return ColoredPointCloud(xyz, rgb, has_color=bool(colors))


def _records(cloud: ColoredPointCloud) -> np.ndarray:
    """The cloud as every writer stores it: one record per point with fields
    x, y, z ("<f4") and, when the cloud has color, red, green, blue ("u1").

    Raises InvalidParamsError when a coordinate overflows float32, naming
    the first point that does.
    """
    try:
        with np.errstate(over="raise"):
            xyz = cloud.xyz.T.astype("<f4", order="C")
    except FloatingPointError:
        # a cloud's coordinates are finite, so only an overflow is infinite here
        with np.errstate(over="ignore"):
            rows = np.nonzero(np.isinf(cloud.xyz.astype(np.float32)).any(axis=1))[0]
        raise InvalidParamsError(f"coordinates of {len(rows)} point(s) overflow float32 and"
                                 f" cannot be written, first at point {rows[0]}") from None
    columns = dict(zip(_AXES, xyz))
    if cloud.has_color:
        # a cloud's colors lie in [0, 1], so every byte lies in 0..255
        columns.update(zip(_COLOR_NAMES, np.rint(cloud.rgb * 255.0).astype(np.uint8).T))
    records = np.empty(len(cloud), [(name, column.dtype) for name, column in columns.items()])
    for name, column in columns.items():
        records[name] = column
    return records


# Rows per `%` operation, so a block's Python values stay bounded. Writing
# the 99k-point room as ASCII PLY took the same time, within noise, from
# 1,024 rows per block to one block, while tracemalloc's peak went from
# 11.6 MB (up to 16,384 rows) to 18 MB (65,536) and 26 MB (one block)
# (2-vCPU VM, CPython 3.11).
_BLOCK_ROWS = 16_384


def format_rows(columns: list, sep: str) -> str:
    """Equal-length 1-D columns as text, one line per row, values joined by sep.

    The one number format of every text output: a column of integers (color
    bytes, indices, counts) prints as '%d', any other as '%.9g'; 9 significant
    digits uniquely identify a float32. Each block of rows is formatted by a
    single ``%`` on the block's values as one flat tuple, so every value
    prints exactly as formatting it alone would.
    """
    columns = [np.asarray(column) for column in columns]
    line = sep.join("%d" if column.dtype.kind in "iu" else "%.9g" for column in columns) + "\n"
    n, width = len(columns[0]), len(columns)
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        values = [None] * ((stop - start) * width)
        for offset, column in enumerate(columns):
            values[offset::width] = column[start:stop].tolist()
        blocks.append(line * (stop - start) % tuple(values))
    return "".join(blocks)


# ---------------------------------------------------------------------------
# PLY


_PLY_LAYOUTS = {"ascii": CloudFormat.PLY_ASCII, "binary_little_endian": CloudFormat.PLY_BINARY_LE}


def _ply_header(data: bytes):
    """The PLY header read and checked: the layout that its format line names,
    the vertex count, the vertex properties as (name, numpy type code) in file
    order, and the offset where the body starts. The properties of elements
    after vertex are skipped, so a mesh reads as its vertices."""
    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise MalformedHeaderError("not a ply file (missing magic or end_header)")
    newline = data.find(b"\n", end)
    if newline < 0:
        raise MalformedHeaderError("header terminator not followed by a newline")
    try:
        header = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError("header is not ascii") from exc

    layout = count = fields = None
    # the list that the current element's properties go to; None before the
    # first element and past the vertex element
    props, leading = None, False
    for raw in header.splitlines()[1:]:
        line = raw.strip()
        if not line or line.startswith(("comment", "obj_info")):
            continue
        tokens = line.split()
        if tokens[0] == "format":
            named = _PLY_LAYOUTS.get(tokens[1]) if len(tokens) >= 3 else None
            if named is None or layout not in (None, named):
                raise MalformedHeaderError(f"unsupported or conflicting format line {line!r}")
            layout = named
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise MalformedHeaderError(f"unreadable element line {line!r}")
            if fields is None and tokens[1] == "vertex":
                count, fields = int(tokens[2]), []
                props = fields
            else:
                leading |= fields is None and int(tokens[2]) > 0
                props = [] if fields is None else None
        elif tokens[0] == "property":
            if props is None and fields is None:
                raise MalformedHeaderError("property declared before any element")
            if props is None:
                continue
            if len(tokens) > 1 and tokens[1] == "list":
                raise UnsupportedPropertyError("list properties are not supported")
            if len(tokens) != 3:
                raise MalformedHeaderError(f"unreadable property line {line!r}")
            if tokens[1] not in _PLY_TYPES:
                raise UnsupportedPropertyError(f"property type {tokens[1]!r} not supported")
            props.append((tokens[2], _PLY_TYPES[tokens[1]]))
        else:
            raise MalformedHeaderError(f"unreadable header line {line!r}")
    if layout is None:
        raise MalformedHeaderError("header carries no format line")
    if fields is None:
        raise MalformedHeaderError("no vertex element declared")
    if leading:
        raise UnsupportedPropertyError("non-empty elements before vertex are not supported")
    codes = dict(fields)
    if len(codes) < len(fields):
        raise MalformedHeaderError("duplicate vertex property")
    for name, code in fields:
        if name in _COLOR_NAMES and code != "u1":
            raise UnsupportedPropertyError(f"color property {name!r} must be uchar")
    for axis in _AXES:
        if axis not in codes:
            raise MalformedHeaderError(f"vertex element lacks property {axis!r}")
        if codes[axis] == "u1":
            raise UnsupportedPropertyError(f"coordinate property {axis!r} must be float or double")
    return layout, count, fields, newline + 1


def _write_ply(cloud: ColoredPointCloud, fmt: CloudFormat) -> bytes:
    """The PLY file of fmt's layout: one property line per record field, then
    the records' bytes (binary) or their fields as text (ASCII)."""
    records = _records(cloud)
    names = records.dtype.names
    binary = fmt is CloudFormat.PLY_BINARY_LE
    lines = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
             f"element vertex {len(records)}"]
    lines += [f"property {'float' if name in _AXES else 'uchar'} {name}" for name in names]
    header = ("\n".join(lines) + "\nend_header\n").encode("ascii")
    if binary:
        return header + records.tobytes()
    return header + format_rows([records[name] for name in names], " ").encode("ascii")


# ---------------------------------------------------------------------------
# PCD


def _pcd_header(data: bytes):
    """The PCD header read and checked: the layout, the point count, the
    fields as (name, numpy type code) in file order ("<f4" for F 4, "<f8" for
    any other type), and the offset after the DATA line.

    Only the header is decoded. The walk stops with MalformedHeaderError at
    the first line that is neither a ``#`` comment nor a line of a PCD v0.7
    key, so a file that is not a point cloud is rejected at its first line."""
    meta: dict[str, list[str]] = {}
    position = 0
    while "DATA" not in meta and position < len(data):
        brk = _LINE_BREAK.search(data, position)
        line = data[position:brk.start() if brk else len(data)]
        position = brk.end() if brk else len(data)
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedHeaderError(
                "unrecognized point-cloud file: pcd header is not ascii") from exc
        key, *values = text.split() or [""]
        if key.startswith("#"):
            continue
        if key.upper() not in ("VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH", "HEIGHT",
                               "VIEWPOINT", "POINTS", "DATA"):
            raise MalformedHeaderError(
                f"unrecognized point-cloud file: not a pcd header line: {text[:40]!r}")
        meta[key.upper()] = values
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
    if len(set(fields)) != len(fields):
        raise MalformedHeaderError("duplicate pcd field")
    counts = meta.get("COUNT", ["1"] * len(fields))
    if any(c != "1" for c in counts):
        raise UnsupportedPropertyError("multi-count pcd fields are not supported")
    try:
        n_points = int(meta["POINTS"][0])
    except (ValueError, IndexError) as exc:
        raise MalformedHeaderError("unreadable POINTS line") from exc
    if n_points < 0:
        raise MalformedHeaderError(f"negative POINTS count {n_points}")
    if "WIDTH" in meta and "HEIGHT" in meta:
        try:
            if int(meta["WIDTH"][0]) * int(meta["HEIGHT"][0]) != n_points:
                raise MalformedHeaderError("WIDTH*HEIGHT does not match POINTS")
        except (ValueError, IndexError) as exc:
            raise MalformedHeaderError("unreadable WIDTH/HEIGHT") from exc

    declared = dict(zip(fields, zip(types, sizes)))
    for axis in _AXES:
        if axis not in declared:
            raise MalformedHeaderError(f"pcd header lacks field {axis!r}")
        if declared[axis][0] != "F" or declared[axis][1] not in ("4", "8"):
            raise UnsupportedPropertyError(f"field {axis!r} must be F4 or F8")
    if "rgb" in declared and declared["rgb"] != ("F", "4"):
        raise UnsupportedPropertyError("field 'rgb' must be the packed F4 encoding")
    fields = [(name, "<f4" if declared[name] == ("F", "4") else "<f8") for name in fields]
    return CloudFormat.PCD_ASCII, n_points, fields, position


def _write_pcd(cloud: ColoredPointCloud) -> bytes:
    records = _records(cloud)
    columns = [records[axis] for axis in _AXES]
    if cloud.has_color:
        # the packed float: red, green and blue bytes in the low 24 bits
        red, green, blue = (records[name].astype(np.uint32) for name in _COLOR_NAMES)
        columns.append(((red << 16) | (green << 8) | blue).view(np.float32))
    fields = [*_AXES, "rgb"][:len(columns)]
    header = "\n".join([
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        "FIELDS " + " ".join(fields),
        "SIZE " + " ".join(["4"] * len(fields)),
        "TYPE " + " ".join(["F"] * len(fields)),
        "COUNT " + " ".join(["1"] * len(fields)),
        f"WIDTH {len(records)}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {len(records)}",
        "DATA ascii\n",
    ])
    return (header + format_rows(columns, " ")).encode("ascii")
