"""Pins the bytes and exit code of the CLI's help, usage and usage-error
output: ``--help`` of the tool and of each subcommand, the no-argument call
and a set of usage errors, run through ``cli.main`` with ``COLUMNS=80``.
Regenerate the golden file with

    PYTHONPATH=src python tests/test_cli_help.py

Python 3.10's argparse heads the option list ``optional arguments:`` where
3.11 and later print ``options:``, so that heading is normalised, as are
the quotes around the names in an ``invalid choice`` message.
"""

import os
import re
from pathlib import Path

from conftest import run_main

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "cli_help.txt"

SUBCOMMANDS = ("analyze", "compare", "sweep", "soc", "trend", "export-catalog")

CASES = (
    ("--help",),
    *((command, "--help") for command in SUBCOMMANDS),
    (),
    ("sweep", "--format", "xml"),
    ("analyze", "--bogus"),
    ("bogus",),
    ("compare", "a", "b", "c"),
    ("soc", "--area", "1"),
    ("export-catalog", "--stack", "asap7"),
)


def _normalise(text: str) -> str:
    text = text.replace("\noptional arguments:\n", "\noptions:\n")
    return re.sub(r"\(choose from [^)]*\)", lambda m: m.group(0).replace("'", ""), text)


def help_text() -> str:
    parts = []
    for argv in CASES:
        proc = run_main(*argv)
        parts.append(
            f"$ {' '.join(('pfasfab', *argv))}\n"
            f"exit {proc.returncode}\n"
            f"--- stdout\n{_normalise(proc.stdout)}"
            f"--- stderr\n{_normalise(proc.stderr)}"
        )
    return "".join(parts)


def test_help_and_usage_errors_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text() == GOLDEN_FILE.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN_FILE.write_text(help_text(), encoding="utf-8")
