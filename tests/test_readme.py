"""The README's examples run as written: each ``pfasfab`` line of its Quick
start through ``cli.main`` from the repo root, and its ``python`` blocks in
order in one namespace."""

import re
import shlex

import pytest

from conftest import REPO_ROOT, run_main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def _quick_start() -> list[list[str]]:
    section = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = _blocks(section, "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pfasfab ")]


_COMMANDS = _quick_start()


def test_quick_start_lists_every_subcommand():
    assert sorted({argv[0] for argv in _COMMANDS}) == [
        "analyze", "compare", "export-catalog", "soc", "sweep", "trend"]


@pytest.mark.parametrize("argv", _COMMANDS, ids=[" ".join(argv) for argv in _COMMANDS])
def test_quick_start_command_runs(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(REPO_ROOT)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1:]]
    proc = run_main(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout or "--out" in argv


def test_library_examples_run(capsys):
    blocks = _blocks(README, "python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[0] == "29"
