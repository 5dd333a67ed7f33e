"""Self-tests of the benchmark: every output check fails on a wrong output.

Run from the repository root with ``python3 -m pytest perfbench``. Each
check is first shown to pass on the program's real output, then to fail on a
deliberately broken copy, so a zero error rate cannot come from a check that
never fires.
"""

from __future__ import annotations

import numpy as np
import pytest

from cedkit import cli, cloudio, detector
from cedkit.cloud import ColoredPointCloud

import checks
import tracer
import workloads
from checks import CheckFailed

RADIUS, TG, TC, MIN_NEIGHBORS = 0.04, 0.2, 0.1, 5


@pytest.fixture(scope="module")
def small_room():
    """A 0.3 m room as the program reads it from a file (about 3.2k points)."""
    cloud = workloads.room(0.3, seed=3)
    xyz = checks.snap_xyz(cloud.xyz)
    rgb = checks.color_bytes(cloud.rgb) / 255.0
    return cloud, ColoredPointCloud(xyz, rgb, cloud.resolution, True)


@pytest.fixture(scope="module")
def keypoint_csv(small_room):
    _, read = small_room
    result = detector.detect_with_fields(read, detector.DetectorParams(radius=RADIUS))
    text = detector.export_keypoints_csv(read, result.keypoints, result.geometric,
                                         result.photometric)
    return text, result


def _check_csv(read, text):
    # The sample covers every point, so no wrong decision can hide.
    return checks.check_detect_csv(
        text, read.xyz, read.rgb, radius=RADIUS, geo_threshold=TG, color_threshold=TC,
        min_neighbors=MIN_NEIGHBORS, sample=len(read), seed=0)


def _decisions(read, indices):
    oracle = checks.LocalOracle(read.xyz, read.rgb, RADIUS, MIN_NEIGHBORS)
    return {int(i): oracle.decide(int(i), TG * RADIUS, TC) for i in indices}


def test_detect_check_accepts_program_output(small_room, keypoint_csv):
    _, read = small_room
    text, result = keypoint_csv
    ties = _check_csv(read, text)
    assert len(result.keypoints) > 0
    assert ties < len(read)


def test_detect_check_rejects_dropped_keypoint(small_room, keypoint_csv):
    _, read = small_room
    text, result = keypoint_csv
    decisions = _decisions(read, result.keypoints.indices)
    certain = next(i for i, d in decisions.items() if d is True)
    lines = [line for line in text.split("\n") if not line.startswith(f"{certain},")]
    with pytest.raises(CheckFailed, match="missing from the CSV"):
        _check_csv(read, "\n".join(lines))


def test_detect_check_rejects_extra_keypoint(small_room, keypoint_csv):
    _, read = small_room
    text, result = keypoint_csv
    others = np.setdiff1d(np.arange(len(read)), result.keypoints.indices)
    rejected = next(i for i, d in _decisions(read, others[:50]).items() if d is False)
    rows = text.split("\n")[1:-1]
    x, y, z = read.xyz[rejected]
    r, g, b = read.rgb[rejected]
    rows.append(f"{rejected},{x:.9g},{y:.9g},{z:.9g},{r:.9g},{g:.9g},{b:.9g},0,0")
    rows.sort(key=lambda row: int(row.split(",")[0]))
    with pytest.raises(CheckFailed, match="oracle rejects it"):
        _check_csv(read, "\n".join([checks.CSV_HEADER, *rows, ""]))


@pytest.mark.parametrize("column", [7, 8])
def test_detect_check_rejects_perturbed_saliency(small_room, keypoint_csv, column):
    _, read = small_room
    text, result = keypoint_csv
    lines = text.split("\n")
    row = lines[1].split(",")
    row[column] = f"{float(row[column]) * (1 + 1e-6) + 1e-9:.9g}"
    lines[1] = ",".join(row)
    with pytest.raises(CheckFailed, match="vs oracle"):
        _check_csv(read, "\n".join(lines))


def test_detect_check_rejects_wrong_coordinates(small_room, keypoint_csv):
    _, read = small_room
    text, _ = keypoint_csv
    lines = text.split("\n")
    row = lines[1].split(",")
    row[1] = f"{float(row[1]) + 1e-6:.9g}"
    lines[1] = ",".join(row)
    with pytest.raises(CheckFailed, match="coordinates or colors"):
        _check_csv(read, "\n".join(lines))


# ---------------------------------------------------------------------------
# cloudio


def _written(cloud, fmt):
    return cloudio.write_cloud(cloud, cloudio.CloudFormat(fmt))


@pytest.mark.parametrize("fmt", tracer.FORMATS)
def test_io_checks_accept_program_output(small_room, fmt):
    cloud, read = small_room
    data = _written(cloud, fmt)
    rgb_bytes = checks.color_bytes(cloud.rgb)
    checks.check_written(fmt, data, read.xyz, rgb_bytes)
    checks.check_parsed(cloudio.parse_cloud(data, cloudio.CloudFormat(fmt)), read.xyz, rgb_bytes)


@pytest.mark.parametrize("offset", [-1, -5000, 40])
def test_io_check_rejects_flipped_binary_byte(small_room, offset):
    cloud, read = small_room
    data = bytearray(_written(cloud, "ply-bin"))
    data[offset] ^= 0x01
    with pytest.raises(CheckFailed):
        checks.check_written("ply-bin", bytes(data), read.xyz, checks.color_bytes(cloud.rgb))


@pytest.mark.parametrize("fmt", ["ply", "pcd"])
def test_io_check_rejects_changed_ascii_coordinate(small_room, fmt):
    cloud, read = small_room
    text = _written(cloud, fmt).decode("ascii")
    head, sep, body = text.partition("end_header\n" if fmt == "ply" else "DATA ascii\n")
    first, rest = body.split("\n", 1)
    tokens = first.split()
    tokens[0] = f"{float(tokens[0]) + 1e-4:.9g}"
    broken = (head + sep + " ".join(tokens) + "\n" + rest).encode("ascii")
    with pytest.raises(CheckFailed, match="coordinates differ"):
        checks.check_written(fmt, broken, read.xyz, checks.color_bytes(cloud.rgb))


def test_io_check_rejects_changed_ascii_color(small_room):
    cloud, read = small_room
    text = _written(cloud, "ply").decode("ascii")
    head, sep, body = text.partition("end_header\n")
    first, rest = body.split("\n", 1)
    tokens = first.split()
    tokens[3] = str((int(tokens[3]) + 1) % 256)
    broken = (head + sep + " ".join(tokens) + "\n" + rest).encode("ascii")
    with pytest.raises(CheckFailed, match="color bytes differ"):
        checks.check_written("ply", broken, read.xyz, checks.color_bytes(cloud.rgb))


def test_io_check_rejects_parsed_cloud_off_by_one_ulp(small_room):
    cloud, read = small_room
    xyz = read.xyz.copy()
    xyz[7, 2] = np.nextafter(xyz[7, 2], np.inf)
    parsed = ColoredPointCloud(xyz, read.rgb, read.resolution, True)
    with pytest.raises(CheckFailed, match="parsed coordinates"):
        checks.check_parsed(parsed, read.xyz, checks.color_bytes(cloud.rgb))


# ---------------------------------------------------------------------------
# evaluation

TGS, TCS = workloads.ABLATE_TG, workloads.ABLATE_TC


def _grid(counts, reps=None):
    cells = [(tg, tc) for tg in TGS for tc in TCS]
    reps = reps or [0.9] * len(cells)
    return [(tg, tc, n, rep) for (tg, tc), n, rep in zip(cells, counts, reps)]


GOOD_COUNTS = [965, 400, 100, 500, 200, 60, 300, 90, 16]


def test_ablate_check_accepts_monotone_grid():
    checks.check_ablate(_grid(GOOD_COUNTS), TGS, TCS)


@pytest.mark.parametrize("cell, count", [(1, 966), (4, 401), (8, 61)])
def test_ablate_check_rejects_non_monotone_row(cell, count):
    counts = list(GOOD_COUNTS)
    counts[cell] = count
    with pytest.raises(CheckFailed, match="counts rise"):
        checks.check_ablate(_grid(counts), TGS, TCS)


def test_ablate_check_rejects_out_of_range_or_missing_rows():
    reps = [0.9] * 8 + [1.01]
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_ablate(_grid(GOOD_COUNTS, reps), TGS, TCS)
    with pytest.raises(CheckFailed, match="grid"):
        checks.check_ablate(_grid(GOOD_COUNTS)[:-1], TGS, TCS)


def test_ablate_csv_round_trip():
    from cedkit.evaluation import AblationRow, RepeatabilityConfig, ablation_csv

    rows = [AblationRow(tg, tc, n, rep, 0.5) for tg, tc, n, rep in _grid(GOOD_COUNTS)]
    parsed = checks.parse_ablate_csv(ablation_csv(rows, RepeatabilityConfig(trials=1)))
    assert parsed == _grid(GOOD_COUNTS)


def test_repeat_check():
    report = {"total_keypoints": 30.0, "repeatable_keypoints": 21.0,
              "relative_repeatability": 0.7}
    checks.check_repeat(report, random_repeatability=0.01)
    with pytest.raises(CheckFailed, match="5x the random"):
        checks.check_repeat(report, random_repeatability=0.15)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_repeat({**report, "relative_repeatability": 1.2}, 0.0)
    with pytest.raises(CheckFailed, match="no keypoints"):
        checks.check_repeat({**report, "total_keypoints": 0.0}, 0.0)


def test_later_outputs_must_equal_the_first():
    calls = []
    check = workloads._first_then_equal(lambda out: out, calls.append)
    check("a")
    check("a")
    assert calls == ["a"]
    with pytest.raises(CheckFailed, match="differs"):
        check("b")

    def reject(_):
        raise CheckFailed("wrong")

    check = workloads._first_then_equal(lambda out: out, reject)
    with pytest.raises(CheckFailed, match="wrong"):
        check("a")
    with pytest.raises(CheckFailed, match="first call, which failed"):
        check("a")


def test_failed_calls_add_no_timing_sample(tmp_path):
    run = workloads.Run(seed=0, out_dir=tmp_path, tracer=None)

    def raise_error():
        raise RuntimeError("broken")

    def reject(_):
        raise CheckFailed("wrong")

    run.execute(workloads.Op("detect_s", raise_error, lambda _: None))
    run.execute(workloads.Op("detect_s", lambda: "out", reject))
    assert (run.attempted, len(run.failures)) == (2, 2)
    assert "detect_s" not in run.samples
    run.execute(workloads.Op("detect_s", lambda: "out", lambda _: None))
    assert len(run.samples["detect_s"]) == 1


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_direct_children():
    spans = [tracer.Span(0, None, 0, "cli.main", 0.0, 10.0),
             tracer.Span(1, 0, 0, "detector.detect", 1.0, 7.0),
             tracer.Span(2, 1, 0, "index.graph", 2.0, 5.0),
             tracer.Span(3, 0, 0, "detector.export", 8.0, 9.0)]
    assert tracer.self_seconds(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_install_and_restore_leave_modules_as_they_were():
    before = (cli.main, detector.multimodal_nms, detector.saliency_from_graph)
    spans = tracer.Tracer()
    tracer.install(spans)
    assert cli.main is not before[0]
    spans.restore()
    assert (cli.main, detector.multimodal_nms, detector.saliency_from_graph) == before


def _traced_detect_counts(path, out):
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        spans.enabled, spans.op = True, 0
        assert cli.main(["detect", "-i", str(path), "--radius", str(RADIUS), "-o", str(out)]) == 0
    finally:
        spans.restore()
    metrics = tracer.layer_metrics(spans.spans, {0: 0}, set())
    return {k: v for k, v in metrics.items() if not k.endswith("_s") and "_s." not in k}


def test_traced_counts_repeat_exactly(small_room, tmp_path):
    cloud, read = small_room
    path = tmp_path / "room.ply"
    path.write_bytes(_written(cloud, "ply-bin"))
    first = _traced_detect_counts(path, tmp_path / "a.csv")
    second = _traced_detect_counts(path, tmp_path / "b.csv")
    assert first == second
    assert first["detector.detect_calls"] == 1
    assert first["index.pairs"] > 0
    assert first["index.graph_bytes"] == tracer.GRAPH_BYTES_PER_PAIR * first["index.pairs"]
    assert first["cloudio.bytes.ply-bin"] == path.stat().st_size
    assert first["detector.n_selected"] == (tmp_path / "a.csv").read_text().count("\n") - 1
