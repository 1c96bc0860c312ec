import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from pfasfab import DEFAULT_CATALOG, DEFAULT_WEIGHTS, asap7_preset, cli, n7_fixture

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args: str):
    """Run the CLI in a fresh interpreter; returns the completed process."""
    return subprocess.run(
        [sys.executable, "-m", "pfasfab", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def run_main(*args: str):
    """Run ``cli.main`` in this process with stdout and stderr captured;
    returns a completed process like ``run_cli`` does."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture
def catalog():
    return DEFAULT_CATALOG


@pytest.fixture
def weights():
    return DEFAULT_WEIGHTS


@pytest.fixture
def asap7():
    return asap7_preset()


@pytest.fixture
def n7_duv():
    return n7_fixture("duv")
