from __future__ import annotations

import gc
import logging
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import cedkit
from cedkit import CloudFormat, detect, detect_random, parse_cloud, DetectorParams
from cedkit.cli import build_parser, main
from cedkit.detector import (
    DEFAULT_COLOR_THRESHOLD,
    DEFAULT_GEO_THRESHOLD,
    DEFAULT_MIN_NEIGHBORS,
)
from oracles import float32_valued_cloud
from cedkit.cloudio import write_cloud


def _child_env(base: Mapping[str, str]) -> dict[str, str]:
    """``base`` with the directory holding the imported cedkit first on
    PYTHONPATH, so a ``python -m cedkit`` child imports the package under test
    whether or not it is installed and whatever its working directory."""
    paths = [str(Path(cedkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**base, "PYTHONPATH": os.pathsep.join(paths)}


def _detect_error_line(path: Path) -> str:
    """Run ``cedkit detect`` on path in a child; it must exit 1 with one error line."""
    proc = subprocess.run(
        [sys.executable, "-m", "cedkit", "detect", "-i", str(path)],
        capture_output=True,
        text=True,
        env=_child_env(os.environ),
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("cedkit: error:")
    return line


@pytest.fixture
def plane_ply(tmp_path):
    path = tmp_path / "plane.ply"
    code = main(
        ["synth", "--kind", "plane", "--extent", "0.4", "--pitch", "0.01", "-o", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture
def tiny_ply(tmp_path, rng):
    """A 12-point colored cloud in binary PLY."""
    path = tmp_path / "tiny.ply"
    path.write_bytes(write_cloud(float32_valued_cloud(rng, 12), CloudFormat.PLY_BINARY_LE))
    return path


class TestSynth:
    def test_writes_parseable_scene(self, plane_ply):
        cloud = parse_cloud(plane_ply.read_bytes(), CloudFormat.PLY_ASCII)
        assert len(cloud) == 41 * 41

    def test_formats(self, tmp_path):
        for fmt, name in [("ply", "a.ply"), ("ply-bin", "b.ply"), ("pcd", "c.pcd")]:
            path = tmp_path / name
            code = main(
                ["synth", "--kind", "checker-floor", "--extent", "0.2", "--pitch", "0.01",
                 "--format", fmt, "-o", str(path)]
            )
            assert code == 0
            parsed = parse_cloud(path.read_bytes(), CloudFormat(fmt))
            assert len(parsed) == 21 * 21

    def test_byte_identical_reruns(self, tmp_path):
        args = ["synth", "--kind", "room", "--extent", "0.3", "--pitch", "0.01",
                "--jitter", "0.2", "--seed", "5"]
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        code = main(["synth", "--kind", "plane", "--pitch", "-1", "-o", str(tmp_path / "x.ply")])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--extent", "inf", "--pitch", "inf"], ["--extent", "inf"], ["--tile", "inf"],
         ["--extent", "1e300", "--pitch", "1e-10"], ["--extent", "1e-9", "--tile", "1e300", "--pitch", "1e-10"]],
        ids=lambda flags: "-".join(flags).replace("--", ""),
    )
    def test_non_finite_spec_exits_2_with_one_line(self, tmp_path, capsys, flags):
        out = tmp_path / "x.ply"
        assert main(["synth", "--kind", "plane", *flags, "-o", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error:")
        assert not out.exists()

    def test_oversized_scene_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.ply"
        assert main(["synth", "--kind", "plane", "--pitch", "1e-10", "-o", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error: scene would have")
        assert not out.exists()

    def test_scene_beyond_float32_exits_2_with_one_line(self, tmp_path, capsys):
        # finite in float64, but coordinates past 3.4e38 have no float32 value
        out = tmp_path / "big.ply"
        argv = ["synth", "--kind", "plane", "--extent", "1e39", "--pitch", "1e38", "-o", str(out)]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error: coordinates of")
        assert "overflow float32" in line
        assert not out.exists()


class TestDetect:
    def test_csv_to_stdout_matches_library(self, plane_ply, capsys):
        code = main(["detect", "-i", str(plane_ply), "--mode", "ced3d"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "index,x,y,z,r,g,b,d_g,d_c"

        cloud = parse_cloud(plane_ply.read_bytes(), CloudFormat.PLY_ASCII)
        from cedkit import DetectorMode

        expected = detect(
            cloud,
            DetectorParams(
                radius=5 * cloud.resolution,
                geo_threshold=0.2,
                color_threshold=0.1,
                mode=DetectorMode.CED_3D,
            ),
        )
        got = [int(line.split(",")[0]) for line in lines[1:]]
        assert got == expected.indices.tolist()
        # uniform plane: only the free boundary of the sample is salient
        border = 0.05
        interior = (
            (cloud.xyz[:, 0] > border) & (cloud.xyz[:, 0] < 0.4 - border)
            & (cloud.xyz[:, 1] > border) & (cloud.xyz[:, 1] < 0.4 - border)
        )
        assert not interior[expected.indices].any()

    def test_ply_output(self, plane_ply, tmp_path):
        out = tmp_path / "keys.ply"
        code = main(["detect", "-i", str(plane_ply), "--mode", "ced3d", "-o", str(out)])
        assert code == 0
        keys = parse_cloud(out.read_bytes(), CloudFormat.PLY_ASCII)
        assert len(keys) > 0

    def test_zero_keypoints_write_as_csv_and_ply(self, plane_ply, tmp_path):
        csv, ply = tmp_path / "keys.csv", tmp_path / "keys.ply"
        args = ["detect", "-i", str(plane_ply), "--tg", "1", "--tc", "3", "-o"]
        assert main(args + [str(csv)]) == 0
        assert csv.read_text() == "index,x,y,z,r,g,b,d_g,d_c\n"
        assert main(args + [str(ply)]) == 0
        keys = parse_cloud(ply.read_bytes(), CloudFormat.PLY_ASCII)
        assert len(keys) == 0
        assert keys.has_color

    def test_random_mode(self, plane_ply, tmp_path):
        out = tmp_path / "keys.csv"
        code = main(["detect", "-i", str(plane_ply), "--mode", "random",
                     "--count", "25", "--seed", "3", "-o", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 26
        cloud = parse_cloud(plane_ply.read_bytes(), CloudFormat.PLY_ASCII)
        got = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert got == detect_random(cloud, 25, 3).indices.tolist()

    def test_seed_random_opts_into_entropy(self, plane_ply, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["detect", "-i", str(plane_ply), "--mode", "random",
                "--count", "25", "--seed", "random"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_out_of_range_threshold_exits_2(self, plane_ply, capsys):
        code = main(["detect", "-i", str(plane_ply), "--tg", "1.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "[0, 1]" in err

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["detect", "-i", str(tmp_path / "absent.ply")])
        assert code == 1

    def test_non_finite_input_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "nan.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
            b"property float y\nproperty float z\nend_header\n0 0 0\nnan 0 0\n0 0 1\n"
        )
        assert "NaN" in _detect_error_line(path)

    @pytest.mark.parametrize(
        "layout, header, body",
        [
            ("ascii", b"property\n", b"0 0 0\n"),
            # z is a signalling NaN: exponent all ones, quiet bit clear
            ("binary_little_endian", b"", np.array([0, 0, 0x7FA00000], dtype="<u4").tobytes()),
        ],
        ids=["bare-property", "signalling-nan"],
    )
    def test_malformed_input_exits_1_with_one_line(self, tmp_path, layout, header, body):
        path = tmp_path / "broken.ply"
        path.write_bytes(
            f"ply\nformat {layout} 1.0\nelement vertex 1\n".encode() + header
            + b"property float x\nproperty float y\nproperty float z\nend_header\n" + body
        )
        _detect_error_line(path)

    def test_color_outside_byte_exits_1_with_one_line(self, tmp_path):
        path = tmp_path / "colors.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
            b"property float y\nproperty float z\nproperty uchar red\n"
            b"property uchar green\nproperty uchar blue\nend_header\n0 0 0 300 -7 0.5\n"
        )
        assert "0..255" in _detect_error_line(path)

    def test_byte_coordinate_exits_1_with_one_line(self, tmp_path):
        path = tmp_path / "coords.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\nproperty uchar x\n"
            b"property float y\nproperty float z\nend_header\n7 0.5 0.25\n"
        )
        assert "float or double" in _detect_error_line(path)

    def test_byte_identical_reruns(self, plane_ply, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["detect", "-i", str(plane_ply), "--mode", "ced3d"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_come_from_the_detector(self, capsys):
        args = build_parser().parse_args(["detect", "-i", "x.ply"])
        assert (args.tg, args.tc, args.min_neighbors) == (
            DEFAULT_GEO_THRESHOLD, DEFAULT_COLOR_THRESHOLD, DEFAULT_MIN_NEIGHBORS)
        sweep = build_parser().parse_args(["ablate", "-i", "x.ply"])
        assert (sweep.tg_values, sweep.tc_values) == (
            [DEFAULT_GEO_THRESHOLD], [DEFAULT_COLOR_THRESHOLD])
        with pytest.raises(SystemExit):
            main(["detect", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default {DEFAULT_GEO_THRESHOLD})" in help_text
        assert f"(default {DEFAULT_COLOR_THRESHOLD})" in help_text
        assert f"(default {DEFAULT_MIN_NEIGHBORS})" in help_text

    @pytest.mark.parametrize("count", ["0", "13"])
    def test_count_out_of_range_exits_2(self, tiny_ply, capsys, count):
        code = main(["detect", "-i", str(tiny_ply), "--mode", "random", "--count", count])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error:")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--no-such-flag"])
        assert excinfo.value.code == 2


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--radius", "inf"],
            ["detect", "--radius", "nan"],
            ["repeat", "--radius", "inf"],
            ["repeat", "--epsilon", "inf"],
            ["repeat", "--sigma", "nan"],
            ["repeat", "--sigma", "inf"],
            ["ablate", "--epsilon", "inf"],
            ["ablate", "--sigma", "nan"],
            ["bench", "--radius", "inf"],
        ],
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_exit_2_with_one_line(self, tiny_ply, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        code = main([argv[0], "-i", str(tiny_ply), "-o", str(out), *argv[1:]])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error:")
        assert "finite" in line
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--kind", "room", "--jitter", "0.3", "--seed", "-1"],
            ["synth", "--kind", "plane", "--seed", "-1"],
            ["repeat", "--seed", "-1"],
            ["ablate", "--seed", "-3"],
            ["detect", "--mode", "random", "--seed", "-5"],
            ["bench", "--mode", "random", "--seed", "-2"],
        ],
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_exit_2_with_one_line(self, tiny_ply, tmp_path, capsys, argv):
        out = tmp_path / "out.ply"
        source = [] if argv[0] == "synth" else ["-i", str(tiny_ply)]
        code = main([argv[0], *source, "-o", str(out), *argv[1:]])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: parameter error:")
        assert "non-negative" in line
        assert not out.exists()


class TestUnparseableValues:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["detect", "--seed", "abc"],
             "argument --seed: seed must be an integer or 'random': 'abc'"),
            (["synth", "--kind", "plane", "--seed", "abc"],
             "argument --seed: seed must be an integer or 'random': 'abc'"),
            (["ablate", "--tg", "0.1,x"],
             "argument --tg: expected comma-separated floats: '0.1,x'"),
        ],
        ids=["detect-seed", "synth-seed", "ablate-tg"],
    )
    def test_usage_error_names_the_value(self, tiny_ply, tmp_path, capsys, argv, message):
        out = tmp_path / "out.ply"
        source = [] if argv[0] == "synth" else ["-i", str(tiny_ply)]
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], *source, "-o", str(out), *argv[1:]])
        assert excinfo.value.code == 2
        assert f"cedkit {argv[0]}: error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["detect", "repeat", "ablate"])
    @pytest.mark.parametrize("message", ["std::bad_alloc", ""])
    def test_exit_1_with_one_line(self, tiny_ply, tmp_path, capsys, monkeypatch, command, message):
        def exhausted(self, radius, core=None):
            raise MemoryError(message)

        monkeypatch.setattr(cedkit.index.SpatialIndex, "neighbor_graph", exhausted)
        out = tmp_path / "out.csv"
        code = main([command, "-i", str(tiny_ply), "--radius", "0.5", "-o", str(out)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cedkit: error: out of memory")
        assert message in line
        assert not out.exists()


class TestInProcessCalls:
    """main called repeatedly in one process, as perfbench and the tests do."""

    def test_log_level_follows_each_call(self, tiny_ply, capfd, monkeypatch):
        argv = ["detect", "-i", str(tiny_ply), "--radius", "0.5", "-o", os.devnull]
        level = logging.getLogger("cedkit").level
        try:
            monkeypatch.setenv("CED_LOG", "WARNING")
            assert main(argv) == 0
            assert capfd.readouterr().err == ""
            monkeypatch.setenv("CED_LOG", "INFO")
            assert main(argv) == 0
            assert capfd.readouterr().err == "INFO cedkit: detected 0 keypoints in 12 points\n"
        finally:
            logging.getLogger("cedkit").setLevel(level)

    @pytest.mark.parametrize("command", ["detect", "repeat", "ablate", "synth"])
    def test_no_cyclic_garbage(self, probe_room, tmp_path, command):
        scene = tmp_path / "room.ply"
        scene.write_bytes(write_cloud(probe_room, CloudFormat.PLY_BINARY_LE))
        out = str(tmp_path / "out")
        argv = {
            "detect": ["detect", "-i", str(scene), "-o", out],
            "repeat": ["repeat", "-i", str(scene), "--trials", "2", "-o", out],
            "ablate": ["ablate", "-i", str(scene), "--trials", "1", "--tg", "0.1,0.2", "-o", out],
            "synth": ["synth", "--kind", "plane", "--extent", "0.1", "-o", out + ".ply"],
        }[command]
        assert main(argv) == 0  # builds the parser and finishes lazy imports
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRepeat:
    def test_report_csv(self, tmp_path):
        scene = tmp_path / "floor.ply"
        assert main(["synth", "--kind", "checker-floor", "--extent", "0.3",
                     "--pitch", "0.01", "--jitter", "0.3", "-o", str(scene)]) == 0
        out = tmp_path / "rep.csv"
        code = main(["repeat", "-i", str(scene), "--trials", "2", "--sigma", "0",
                     "--seed", "1", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "total_keypoints,repeatable_keypoints,relative_repeatability,detect_time_seconds"
        assert len(lines) == 2


class TestAblate:
    def test_five_row_sweep_counts_non_increasing(self, tmp_path):
        scene = tmp_path / "floor.ply"
        assert main(["synth", "--kind", "checker-floor", "--extent", "0.3",
                     "--pitch", "0.01", "--jitter", "0.3", "-o", str(scene)]) == 0
        out = tmp_path / "sweep.csv"
        code = main(["ablate", "-i", str(scene), "--tg", "0.1,0.2,0.3,0.4,0.5",
                     "--tc", "0.1", "--trials", "1", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 5
        counts = [int(line.split(",")[2]) for line in lines[2:]]
        assert counts == sorted(counts, reverse=True)

    def test_help_describes_evaluation_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["ablate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--epsilon EPSILON match radius in meters (default 2 x resolution)" in help_text
        assert "--sigma SIGMA noise sigma for sweep rows (default 0.0)" in help_text
        assert "--trials TRIALS number of random transforms (default 10)" in help_text

    @pytest.mark.parametrize(
        "flags, message",
        [(["--count", "5"], "unrecognized arguments: --count 5"),
         (["--mode", "random"], "invalid choice: 'random'")],
        ids=["count", "mode-random"],
    )
    def test_random_selection_flags_are_usage_errors(self, tiny_ply, tmp_path, capsys,
                                                     flags, message):
        # a sweep varies detector thresholds; random selection has none
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "-i", str(tiny_ply), "--trials", "1", *flags, "-o", str(out)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_runtime_csv(self, plane_ply, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "-i", str(plane_ply), "--mode", "ced3d",
                     "--trials", "3", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mean_seconds,median_seconds,min_seconds,repetitions"
        assert lines[1].endswith(",3")

    def test_threads_flag_is_unknown(self, plane_ply, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "-i", str(plane_ply), "--mode", "ced3d",
                  "--trials", "3", "--threads", "4", "-o", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p.ply"
        result = subprocess.run(
            [sys.executable, "-m", "cedkit", "synth", "--kind", "plane",
             "--extent", "0.1", "--pitch", "0.01", "-o", str(path)],
            capture_output=True,
            text=True,
            env=_child_env(os.environ),
        )
        assert result.returncode == 0, result.stderr
        assert path.exists()

    def test_pcd_input_sniffed(self, tmp_path, rng, capsys):
        cloud = float32_valued_cloud(rng, 50)
        path = tmp_path / "c.pcd"
        path.write_bytes(write_cloud(cloud, CloudFormat.PCD_ASCII))
        code = main(["detect", "-i", str(path), "--radius", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.startswith("index,")

    @pytest.mark.parametrize(
        "fmt, edit",
        [(CloudFormat.PCD_ASCII, lambda data: b"# a comment line\n" * 300 + data),
         (CloudFormat.PLY_ASCII, lambda data: data.replace(
             b"format ascii 1.0\n",
             b"format ascii 1.0\ncomment converted from format binary_little_endian 1.0\n"))],
        ids=["pcd-after-5kb-of-comments", "ply-comment-names-binary"],
    )
    def test_layout_comes_from_the_header(self, tmp_path, probe_room, capsys, fmt, edit):
        data = write_cloud(probe_room, fmt)
        plain, commented = tmp_path / "plain", tmp_path / "commented"
        plain.write_bytes(data)
        commented.write_bytes(edit(data))
        assert commented.read_bytes() != data
        assert main(["detect", "-i", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert expected.count("\n") > 1
        assert main(["detect", "-i", str(commented)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["detect", "repeat", "ablate", "bench"])
    def test_input_format_flag_is_unknown(self, tiny_ply, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "-i", str(tiny_ply), "--format", "ply"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format ply" in capsys.readouterr().err

    def test_log_verbosity_env_var(self, tmp_path):
        path = tmp_path / "p.ply"
        result = subprocess.run(
            [sys.executable, "-m", "cedkit", "synth", "--kind", "plane",
             "--extent", "0.1", "--pitch", "0.01", "-o", str(path)],
            capture_output=True,
            text=True,
            env=_child_env({"CED_LOG": "INFO", "PATH": "/usr/bin:/bin"}),
        )
        assert result.returncode == 0, result.stderr
        assert "generated" in result.stderr
        assert result.stdout == ""

    def test_unknown_log_level_exits_2(self, tmp_path):
        path = tmp_path / "p.ply"
        result = subprocess.run(
            [sys.executable, "-m", "cedkit", "synth", "--kind", "plane",
             "--extent", "0.1", "--pitch", "0.01", "-o", str(path)],
            capture_output=True,
            text=True,
            env=_child_env({"CED_LOG": "bogus", "PATH": "/usr/bin:/bin"}),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("cedkit: ")
        assert len(result.stderr.splitlines()) == 1
        assert "CED_LOG" in result.stderr
        assert not path.exists()
