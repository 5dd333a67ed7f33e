"""The README's examples run as written: its ``python`` block, and each
``cedkit ...`` line of its ``sh`` blocks through the CLI's entry point, in a
fresh directory."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cedkit import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_python_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_command_line_examples_run(tmp_path, monkeypatch):
    commands = [shlex.split(line, comments=True) for block in blocks("sh")
                for line in block.splitlines() if line.startswith("cedkit ")]
    assert [argv[1] for argv in commands] == ["synth", "detect", "detect", "repeat", "ablate",
                                              "bench"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        output = tmp_path / argv[argv.index("-o") + 1]
        assert output.stat().st_size > 0, argv

