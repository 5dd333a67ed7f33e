"""Output checks for the benchmark workloads.

Every check raises CheckFailed when a program output is wrong. The
workloads run them outside the timed region, and a failed check counts the
operation as failed. Each check compares against the cloud as the program
read it: coordinates snapped to float32 and colors quantized to bytes, which
is what every supported file layout stores.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import linear_scan_neighbors, sequential_mean

CSV_HEADER = "index,x,y,z,r,g,b,d_g,d_c"

# Bound on the rounding error of a saliency: sums of about fifty terms of
# magnitude below 2 (meters, or unit color channels) stay far inside it. The
# program and the oracle add in different orders, so their saliencies may
# differ by this much, and comparisons closer than it are ties.
SALIENCY_TOL = 1e-12
# A value printed with 9 significant digits is within half a unit of the
# ninth digit, at most 5e-9 of the value.
_PRINT_REL = 5e-9 * (1 + 1e-6)

# Neighbors of a neighbor of i lie strictly within 2r of i; the inflation
# keeps that block complete when the squared distances round.
_BLOCK_SLACK = 1.0 + 1e-6


class CheckFailed(Exception):
    """A program output differs from what the definitions require."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def snap_xyz(xyz: np.ndarray) -> np.ndarray:
    return xyz.astype(np.float32).astype(np.float64)


def color_bytes(rgb: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# detect: keypoint CSV against the linear-scan oracle


class LocalOracle:
    """Strict-< linear-scan saliency and NMS decisions for single points.

    The NMS decision for point i needs the saliency of every neighbor of i,
    and each of those neighborhoods lies inside the block of points within
    2r of i. A linear scan over that block compares the same float64 values
    as a scan over the whole cloud, so the results are the oracle's own.
    """

    def __init__(self, xyz, rgb, radius, min_neighbors):
        self.xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        self.rgb = np.ascontiguousarray(rgb, dtype=np.float64)
        self.radius = radius
        self.min_neighbors = min_neighbors
        self._saliency: dict[int, tuple[bool, float, float]] = {}

    def _block(self, i: int) -> np.ndarray:
        return linear_scan_neighbors(self.xyz, i, 2.0 * self.radius * _BLOCK_SLACK)

    def _neighbors(self, block: np.ndarray, j: int) -> np.ndarray:
        position = int(np.searchsorted(block, j))
        return block[linear_scan_neighbors(self.xyz[block], position, self.radius)]

    def _saliency_of(self, block: np.ndarray, j: int) -> tuple[bool, float, float]:
        if j not in self._saliency:
            neighbors = self._neighbors(block, j)
            if neighbors.size < self.min_neighbors:
                self._saliency[j] = (False, 0.0, 0.0)
            else:
                offset = self.xyz[j] - sequential_mean(self.xyz[neighbors].tolist())
                delta = self.rgb[j] - sequential_mean(self.rgb[neighbors].tolist())
                geo = math.sqrt(offset[0] ** 2 + offset[1] ** 2 + offset[2] ** 2)
                color = abs(delta[0]) + abs(delta[1]) + abs(delta[2])
                self._saliency[j] = (True, float(geo), float(color))
        return self._saliency[j]

    def saliency(self, i: int) -> tuple[bool, float, float]:
        """(valid, geometric, photometric) saliency of point i."""
        if i in self._saliency:
            return self._saliency[i]
        return self._saliency_of(self._block(i), i)

    def decide(self, i: int, geo_threshold: float, color_threshold: float) -> bool | None:
        """NMS decision for point i, as in oracles.nms_transcription.

        None when the decision rests on a comparison closer than the rounding
        error of the saliencies (SALIENCY_TOL), which any two summation
        orders may settle either way.
        """
        block = self._block(i)
        valid, geo, color = self._saliency_of(block, i)
        if not valid:
            return False
        passes = max(_sign(geo - geo_threshold, SALIENCY_TOL),
                     _sign(color - color_threshold, SALIENCY_TOL))
        if passes < 0:
            return False
        tied = passes == 0
        product, error = geo * color, _product_error(geo, color)
        for j in self._neighbors(block, i):
            valid_j, geo_j, color_j = self._saliency_of(block, int(j))
            if j == i or not valid_j:
                continue
            beaten = _sign(geo_j * color_j - product, error + _product_error(geo_j, color_j))
            if beaten > 0:
                return False
            tied = tied or beaten == 0
        return None if tied else True


def _sign(difference: float, tolerance: float) -> int:
    """+1 or -1 when difference is certainly positive or negative, else 0."""
    if difference > tolerance:
        return 1
    if difference < -tolerance:
        return -1
    return 0


def _product_error(geo: float, color: float) -> float:
    return (geo + color + SALIENCY_TOL) * SALIENCY_TOL


def _printed(value: float) -> str:
    return f"{value:.9g}"


def _close_to_printed(printed: str, value: float) -> bool:
    return abs(float(printed) - value) <= _PRINT_REL * abs(value) + SALIENCY_TOL


def check_detect_csv(
    text: str,
    xyz: np.ndarray,
    rgb: np.ndarray,
    *,
    radius: float,
    geo_threshold: float,
    color_threshold: float,
    min_neighbors: int,
    sample: int,
    seed: int,
) -> int:
    """Every CSV row, and a seeded sample of the other points, against the oracle.

    geo_threshold is the CLI's --tg (a fraction of the radius); xyz and rgb
    are the cloud as the program read it. Returns how many of the checked
    decisions were ties within rounding, which either answer satisfies.
    """
    lines = text.split("\n")
    expect(lines[0] == CSV_HEADER, f"unexpected CSV header {lines[0]!r}")
    expect(lines[-1] == "", "CSV does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    expect(all(len(row) == 9 for row in rows), "CSV row without 9 columns")
    selected = np.array([int(row[0]) for row in rows], dtype=np.int64)
    n = len(xyz)
    expect(bool(np.all(np.diff(selected) > 0)), "keypoint indices not strictly ascending")
    expect(selected.size == 0 or (selected[0] >= 0 and selected[-1] < n),
           "keypoint index out of range")

    oracle = LocalOracle(xyz, rgb, radius, min_neighbors)
    thresholds = (geo_threshold * radius, color_threshold)
    ties = 0
    for row, i in zip(rows, selected.tolist()):
        decision = oracle.decide(i, *thresholds)
        expect(decision is not False, f"point {i} is in the CSV but the oracle rejects it")
        ties += decision is None
        expected = [_printed(v) for v in (*xyz[i], *rgb[i])]
        expect(row[1:7] == expected, f"coordinates or colors of point {i} differ")
        _, geo, color = oracle.saliency(i)
        expect(_close_to_printed(row[7], geo), f"d_g of point {i}: {row[7]} vs oracle {geo!r}")
        expect(_close_to_printed(row[8], color), f"d_c of point {i}: {row[8]} vs oracle {color!r}")

    others = np.setdiff1d(np.arange(n, dtype=np.int64), selected)
    rng = np.random.default_rng(seed)
    for i in rng.choice(others, size=min(sample, others.size), replace=False).tolist():
        decision = oracle.decide(i, *thresholds)
        expect(decision is not True,
               f"point {i} is a keypoint by the oracle but missing from the CSV")
        ties += decision is None
    return ties


# ---------------------------------------------------------------------------
# cloudio: written bytes decoded independently, parsed clouds bit-exact


def _split_ply(data: bytes) -> tuple[list[str], bytes]:
    marker = b"end_header\n"
    end = data.find(marker)
    expect(data.startswith(b"ply\n") and end >= 0, "not a PLY file")
    return data[:end].decode("ascii").split("\n"), data[end + len(marker):]


def _expect_ply_header(lines: list[str], fmt_line: str, n: int) -> None:
    body = [line for line in lines if line and not line.startswith("comment")]
    expected = [
        "ply", fmt_line, f"element vertex {n}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
    ]
    expect(body == expected, f"unexpected PLY header {body!r}")


def _expect_xyz32(values32: np.ndarray, xyz: np.ndarray, where: str) -> None:
    expect(values32.shape == xyz.shape, f"{where}: shape {values32.shape} != {xyz.shape}")
    expected = xyz.astype(np.float32)
    expect(np.array_equal(values32.view(np.uint32), expected.view(np.uint32)),
           f"{where}: coordinates differ from the float32-snapped cloud")


def _expect_bytes(values: np.ndarray, rgb_bytes: np.ndarray, where: str) -> None:
    expect(values.shape == rgb_bytes.shape and np.array_equal(values, rgb_bytes),
           f"{where}: color bytes differ")


def check_written(fmt: str, data: bytes, xyz: np.ndarray, rgb_bytes: np.ndarray) -> None:
    """Decode a written file without cedkit and compare it to the cloud."""
    n = len(xyz)
    if fmt == "ply-bin":
        lines, body = _split_ply(data)
        _expect_ply_header(lines, "format binary_little_endian 1.0", n)
        dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                          ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        expect(len(body) == n * dtype.itemsize, f"binary body of {len(body)} bytes")
        records = np.frombuffer(body, dtype=dtype)
        _expect_xyz32(np.column_stack([records["x"], records["y"], records["z"]]), xyz, fmt)
        _expect_bytes(np.column_stack([records["red"], records["green"], records["blue"]]),
                      rgb_bytes, fmt)
    elif fmt == "ply":
        lines, body = _split_ply(data)
        _expect_ply_header(lines, "format ascii 1.0", n)
        tokens = body.split()
        expect(len(tokens) == 6 * n, f"ASCII body of {len(tokens)} tokens")
        table = np.array(tokens, dtype=np.float64).reshape(n, 6)
        _expect_xyz32(table[:, :3].astype(np.float32), xyz, fmt)
        _expect_bytes(table[:, 3:], rgb_bytes.astype(np.float64), fmt)
    elif fmt == "pcd":
        text = data.decode("ascii")
        head, sep, body = text.partition("DATA ascii\n")
        expect(sep != "", "PCD without 'DATA ascii'")
        header = [line for line in head.split("\n") if line and not line.startswith("#")]
        meta = {line.split()[0]: line.split()[1:] for line in header}
        expect(meta.get("FIELDS") == ["x", "y", "z", "rgb"], f"PCD fields {meta.get('FIELDS')}")
        expect(meta.get("POINTS") == [str(n)], f"PCD points {meta.get('POINTS')}")
        tokens = body.split()
        expect(len(tokens) == 4 * n, f"PCD body of {len(tokens)} tokens")
        table = np.array(tokens, dtype=np.float64).reshape(n, 4).astype(np.float32)
        _expect_xyz32(table[:, :3], xyz, fmt)
        packed = np.ascontiguousarray(table[:, 3]).view(np.uint32)
        unpacked = np.column_stack([(packed >> 16) & 0xFF, (packed >> 8) & 0xFF, packed & 0xFF])
        _expect_bytes(unpacked.astype(np.uint8), rgb_bytes, fmt)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def check_parsed(cloud, xyz: np.ndarray, rgb_bytes: np.ndarray) -> None:
    """A parsed cloud must equal the snapped cloud bit for bit."""
    expect(len(cloud) == len(xyz), f"parsed {len(cloud)} points, wrote {len(xyz)}")
    expect(bool(cloud.has_color), "parsed cloud lost its colors")
    expect(np.array_equal(cloud.xyz.view(np.uint64), xyz.view(np.uint64)),
           "parsed coordinates differ from the float32-snapped cloud")
    expect(np.array_equal(cloud.rgb, rgb_bytes / 255.0), "parsed colors differ from byte/255")


# ---------------------------------------------------------------------------
# evaluation: repeat and ablate reports


def parse_repeat_csv(text: str) -> dict[str, float]:
    lines = text.split("\n")
    expect(len(lines) == 3 and lines[2] == "", "repeat CSV is not one header and one row")
    header, row = lines[0].split(","), lines[1].split(",")
    expect(len(header) == len(row), "repeat CSV row and header differ in length")
    return {name: float(value) for name, value in zip(header, row)}


def parse_ablate_csv(text: str) -> list[tuple[float, float, int, float]]:
    """(t_g, t_c, keypoint_count, repeatability) per row; runtime dropped."""
    lines = text.split("\n")
    expect(lines[0].startswith("#"), "ablate CSV lacks its settings comment")
    expect(lines[1] == "t_g,t_c,keypoint_count,repeatability,runtime_seconds",
           f"unexpected ablate header {lines[1]!r}")
    expect(lines[-1] == "", "ablate CSV does not end with a newline")
    rows = []
    for line in lines[2:-1]:
        tg, tc, count, rep, _runtime = line.split(",")
        rows.append((float(tg), float(tc), int(count), float(rep)))
    return rows


def check_ablate(rows, tg_values, tc_values) -> None:
    """Grid complete; counts non-increasing along both axes; repeatability in [0, 1]."""
    grid = [(tg, tc) for tg in tg_values for tc in tc_values]
    expect([(tg, tc) for tg, tc, _, _ in rows] == grid, "ablate rows do not cover the grid in order")
    counts = {(tg, tc): count for tg, tc, count, _ in rows}
    for tc in tc_values:
        along = [counts[tg, tc] for tg in tg_values]
        expect(along == sorted(along, reverse=True), f"counts rise along t_g at t_c={tc}: {along}")
    for tg in tg_values:
        along = [counts[tg, tc] for tc in tc_values]
        expect(along == sorted(along, reverse=True), f"counts rise along t_c at t_g={tg}: {along}")
    for tg, tc, _, rep in rows:
        expect(0.0 <= rep <= 1.0, f"repeatability {rep} outside [0, 1] at ({tg}, {tc})")


def check_repeat(report: dict[str, float], random_repeatability: float) -> None:
    """Repeatability in [0, 1] and at least 5x the random baseline's."""
    rep = report["relative_repeatability"]
    expect(report["total_keypoints"] >= 1, "repeat found no keypoints")
    expect(0.0 <= rep <= 1.0, f"repeatability {rep} outside [0, 1]")
    expect(rep >= 5.0 * random_repeatability,
           f"repeatability {rep} below 5x the random baseline's {random_repeatability}")
