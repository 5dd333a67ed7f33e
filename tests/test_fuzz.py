"""Seeded mutation fuzzing of the parsers on the writers' own output.

Every mutated file must either parse into a cloud or raise a CloudFormatError;
any other exception fails, and so does any warning, which would otherwise
reach a user's stderr next to the CLI's one-line error.
"""

from __future__ import annotations

import numpy as np
import pytest

from cedkit import CloudFormat, ColoredPointCloud, SceneKind, SceneSpec, generate_scene
from cedkit import parse_cloud, write_cloud
from cedkit.errors import CloudFormatError, MalformedHeaderError, TruncatedBodyError

pytestmark = pytest.mark.filterwarnings("error")

# 1,442 points: small enough for a few thousand parses in a few seconds
PROBE_ROOM = SceneSpec(kind=SceneKind.ROOM_COMPOSITE, extent=0.2, pitch=0.01, tile=0.4,
                       jitter=0.35, seed=3)
# Every header of the probe room ends within its first 300 bytes.
HEAD_BYTES = 300
CASES = 300


@pytest.fixture(scope="module")
def probe_room():
    return generate_scene(PROBE_ROOM)


@pytest.fixture(scope="module")
def written(probe_room):
    return {fmt: write_cloud(probe_room, fmt) for fmt in CloudFormat}


def parse_or_reject(data: bytes, fmt: CloudFormat) -> None:
    try:
        cloud = parse_cloud(data, fmt)
    except CloudFormatError:
        return
    assert isinstance(cloud, ColoredPointCloud)


def truncations(data, rng):
    for cut in rng.integers(0, len(data), size=CASES):
        yield data[:cut]


def head_flips(data, rng):
    for at, mask in zip(rng.integers(0, HEAD_BYTES, size=CASES), rng.integers(1, 256, size=CASES)):
        yield data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


def head_insertions(data, rng):
    for at, size in zip(rng.integers(0, HEAD_BYTES, size=CASES), rng.integers(1, 4, size=CASES)):
        yield data[:at] + rng.bytes(int(size)) + data[at:]


def head_line_breaks(data, rng):
    # a break after a keyword leaves it bare, as in a lone "property" line
    for at in rng.integers(0, HEAD_BYTES, size=CASES):
        yield data[:at] + b"\n" + data[at:]


def body_start(data):
    return data.index(b"end_header\n") + len(b"end_header\n")


def body_flips(data, rng):
    start = body_start(data)
    for at, mask in zip(rng.integers(start, len(data), size=CASES),
                        rng.integers(1, 256, size=CASES)):
        yield data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


def body_non_finite(data, rng):
    # x, y, z float32 then three color bytes per record; each case sets one
    # coordinate's exponent bits to all ones: infinity, quiet or signalling NaN
    start, record = body_start(data), 15
    records = rng.integers(0, (len(data) - start) // record, size=CASES)
    axes = rng.integers(0, 3, size=CASES)
    bits = rng.integers(0, 2**32, size=CASES, dtype=np.uint32) | np.uint32(0x7F800000)
    for index, axis, pattern in zip(records, axes, bits):
        at = start + index * record + 4 * axis
        yield data[:at] + pattern.astype("<u4").tobytes() + data[at + 4:]


@pytest.mark.parametrize("fmt", list(CloudFormat), ids=lambda fmt: fmt.value)
@pytest.mark.parametrize("mutate", [truncations, head_flips, head_insertions, head_line_breaks],
                         ids=lambda mutate: mutate.__name__)
def test_mutated_file_parses_or_fails_typed(written, fmt, mutate):
    rng = np.random.default_rng(2024)
    for data in mutate(written[fmt], rng):
        parse_or_reject(data, fmt)


@pytest.mark.parametrize("mutate", [body_flips, body_non_finite],
                         ids=lambda mutate: mutate.__name__)
def test_mutated_binary_body_parses_or_fails_typed(written, mutate):
    rng = np.random.default_rng(2024)
    for data in mutate(written[CloudFormat.PLY_BINARY_LE], rng):
        parse_or_reject(data, CloudFormat.PLY_BINARY_LE)


@pytest.mark.parametrize("fmt", list(CloudFormat), ids=lambda fmt: fmt.value)
@pytest.mark.parametrize(
    "declared, error",
    # a huge count must fail on the body's length, before any allocation
    [(b"4000000000", TruncatedBodyError), (b"-1", MalformedHeaderError)],
    ids=["huge", "negative"],
)
def test_declared_count_out_of_range_fails_typed(probe_room, written, fmt, declared, error):
    count = str(len(probe_room)).encode()
    data = written[fmt]
    for key in (b"element vertex ", b"WIDTH ", b"POINTS "):
        data = data.replace(key + count + b"\n", key + declared + b"\n")
    assert declared in data
    with pytest.raises(error):
        parse_cloud(data, fmt)
