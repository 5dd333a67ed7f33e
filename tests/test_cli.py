from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import cedkit
from cedkit import CloudFormat, detect, parse_cloud, DetectorParams
from cedkit.cli import main
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


@pytest.fixture
def plane_ply(tmp_path):
    path = tmp_path / "plane.ply"
    code = main(
        ["synth", "--kind", "plane", "--extent", "0.4", "--pitch", "0.01", "-o", str(path)]
    )
    assert code == 0
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

    def test_random_mode(self, plane_ply, tmp_path):
        out = tmp_path / "keys.csv"
        code = main(["detect", "-i", str(plane_ply), "--mode", "random",
                     "--count", "25", "--seed", "3", "-o", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 26

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
        assert "NaN" in line

    def test_byte_identical_reruns(self, plane_ply, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["detect", "-i", str(plane_ply), "--mode", "ced3d"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--no-such-flag"])
        assert excinfo.value.code == 2


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
